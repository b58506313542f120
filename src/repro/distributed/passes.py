"""Distributed trace preparation as columnar passes.

:class:`OptimizerShardPass` rewrites a single-device iteration trace into
the per-replica trace of ZeRO-style optimizer-state partitioning
(:mod:`repro.distributed.zero`): each of ``D`` replicas updates only its
``1/D`` parameter shard, so every optimizer kernel's work shrinks by
``D`` — except the global gradient-norm reduction, which LAMB requires
over *all* layers' gradients before any update and which therefore stays
full-size on every replica.

Communication kernels are deliberately not inserted here: the wire cost of
the reduce-scatter/all-gather pair lives in
:mod:`repro.distributed.collectives` and is composed at the timeline
level, keeping device traces priceable by :mod:`repro.hw.timing` (which
rejects communication rows by design).
"""

from __future__ import annotations

import numpy as np

from repro.ops.base import Component
from repro.trace.kernel_table import KernelTable
from repro.trace.passes import PassContext, TracePass


def global_norm_rows(table: KernelTable) -> np.ndarray:
    """Row mask of the global gradient-norm reduction.

    This is the one optimizer kernel a replica cannot shard: LAMB needs
    the norm over *all* gradients before any update.  It is matched by
    name, not by ``Region.OPT_NORM``, because unfused LAMB also files its
    per-tensor trust-ratio norms under that region, and those shard with
    their tensors.
    """
    return table.name_contains("grad_norm")


class OptimizerShardPass(TracePass):
    """Shrink optimizer kernels to one replica's ``1/D`` parameter shard.

    Ceil-divides FLOPs, bytes, and element counts of every optimizer
    kernel by ``devices``, except grad-norm kernels (the un-shardable
    global normalization LAMB serializes on).
    """

    name = "shard_optimizer"

    def __init__(self, devices: int = 8):
        if devices < 1:
            raise ValueError("devices must be >= 1")
        self.devices = devices

    def params(self) -> dict:
        return {"devices": self.devices}

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        if self.devices == 1:
            return table
        rows = np.flatnonzero(
            table.mask(component=Component.OPTIMIZER)
            & ~global_norm_rows(table))
        if not len(rows):
            return table

        def shard(column: np.ndarray) -> np.ndarray:
            # Ceil-divide, preserving exact zeros.
            return (column[rows] + self.devices - 1) // self.devices

        return table.rewrite_rows(
            rows, provenance=self.name,
            flops=shard(table.flops),
            bytes_read=shard(table.bytes_read),
            bytes_written=shard(table.bytes_written),
            n_elements=shard(table.n_elements))
