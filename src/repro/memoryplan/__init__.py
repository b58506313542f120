"""Activation checkpointing and memory-footprint planning (Sec. 4)."""

from repro.memoryplan.checkpointing import (CheckpointingPass,
                                            checkpoint_segments,
                                            recompute_overhead)
from repro.memoryplan.footprint import (MemoryFootprint,
                                        layer_activation_bytes,
                                        max_batch_size, training_footprint)

__all__ = [
    "CheckpointingPass", "MemoryFootprint", "checkpoint_segments",
    "layer_activation_bytes", "max_batch_size", "recompute_overhead",
    "training_footprint",
]
