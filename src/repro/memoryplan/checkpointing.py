"""Activation (gradient) checkpointing as a trace transform (Sec. 4).

Instead of saving every layer activation for backprop, checkpointing stores
activations only at segment boundaries (``~sqrt(N)`` of them) and recomputes
each segment's forward pass on demand when backprop reaches it.  The paper
measures ~33% more kernels and ~27% more runtime for BERT Large, with the
in-layer breakdown unchanged and LAMB's share dropping (its absolute cost is
unaffected).

The transform rewrites an iteration trace: before each encoder layer's
backward kernels, the layer's forward kernels are re-emitted (tagged
``recompute.``), except for layers whose input was checkpointed *and* whose
forward output is the stored boundary — the standard segment-replay
schedule re-runs every layer inside a segment, so the whole encoder forward
is effectively executed twice.

:class:`CheckpointingPass` is the columnar implementation: the replay of
each segment is built by a pool-level ``recompute.`` rename over the
segment's forward rows and inserted with one :meth:`KernelTable.splice` at
the segment's first backward row.  The original per-kernel scan survives
as :func:`repro.trace.reference.reference_checkpointing`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ops.base import Component, Phase
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable, code_of
from repro.trace.passes import PassContext, TracePass


def checkpoint_segments(num_layers: int,
                        num_checkpoints: int | None = None) -> list[range]:
    """Split ``num_layers`` into checkpoint segments.

    Args:
        num_layers: encoder layer count ``N``.
        num_checkpoints: boundary count; defaults to ``round(sqrt(N))``
            (four for BERT Large, recomputing after every six layers —
            exactly the paper's setup).

    Returns:
        List of layer ranges, one per segment.
    """
    if num_layers <= 0:
        raise ValueError("num_layers must be positive")
    if num_checkpoints is None:
        num_checkpoints = max(1, round(math.sqrt(num_layers)))
    num_checkpoints = min(num_checkpoints, num_layers)
    segment_len = math.ceil(num_layers / num_checkpoints)
    segments = []
    start = 0
    while start < num_layers:
        end = min(start + segment_len, num_layers)
        segments.append(range(start, end))
        start = end
    return segments


class CheckpointingPass(TracePass):
    """Segment-replay recomputation as a vectorized segment splice.

    The layer-attributed forward kernels of each segment are re-emitted
    immediately before the first backward kernel of that segment's deepest
    layer.  Embedding/output kernels and the optimizer are untouched.
    """

    name = "checkpointing"

    def __init__(self, num_checkpoints: int | None = None):
        self.num_checkpoints = num_checkpoints

    def params(self) -> dict:
        if self.num_checkpoints is None:
            return {}
        return {"num_checkpoints": self.num_checkpoints}

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        attributed = table.layer >= 0
        encoder = table.mask(component=Component.TRANSFORMER) & attributed
        fwd_rows = np.flatnonzero(
            encoder & (table.phase == code_of(Phase.FORWARD)))
        if not len(fwd_rows):
            return table
        bwd_rows = np.flatnonzero(
            encoder & (table.phase == code_of(Phase.BACKWARD)))

        num_layers = int(table.layer[fwd_rows].max()) + 1
        segments = checkpoint_segments(num_layers, self.num_checkpoints)
        segment_of = np.empty(num_layers, dtype=np.int32)
        for index, segment in enumerate(segments):
            segment_of[segment.start:segment.stop] = index

        # First backward row of each segment, in trace order.
        bwd_segment = segment_of[table.layer[bwd_rows]]
        _, first = np.unique(bwd_segment, return_index=True)
        positions = np.sort(bwd_rows[first])

        # Forward rows in replay order: layer ascending, original order
        # within a layer (lexsort: last key is primary).
        fwd_layers = table.layer[fwd_rows]
        replay_order = np.lexsort((fwd_rows, fwd_layers))
        sorted_rows = fwd_rows[replay_order]
        sorted_layers = fwd_layers[replay_order]
        sorted_segment = segment_of[sorted_layers]

        # One ``recompute.``-prefixed name pool shared by every replay.
        pool = list(table.names)
        pool_index = {name: code for code, name in enumerate(pool)}
        translation = np.arange(len(pool), dtype=np.int32)
        for code in np.unique(table.name_code[fwd_rows]):
            renamed = f"recompute.{pool[code]}"
            new_code = pool_index.get(renamed)
            if new_code is None:
                new_code = len(pool)
                pool.append(renamed)
                pool_index[renamed] = new_code
            translation[code] = new_code
        names = tuple(pool)
        backward_code = code_of(Phase.BACKWARD)

        # Splice positions ascend with descending segment index (backprop
        # reaches the deepest segment first); map each to its replay table.
        position_segment = segment_of[table.layer[positions]]
        replays = []
        for segment_index in position_segment:
            rows = sorted_rows[sorted_segment == segment_index]
            replay = table.take(rows).with_columns(
                name_code=translation[table.name_code[rows]], names=names,
                phase=np.full(len(rows), backward_code, dtype=np.int8))
            replays.append(replay.stamped(self.name))
        return table.splice(positions, replays)


def recompute_overhead(trace: Trace, checkpointed: Trace) -> float:
    """Fractional kernel-count increase from checkpointing."""
    if len(trace) == 0:
        raise ValueError("empty base trace")
    return (len(checkpointed) - len(trace)) / len(trace)
