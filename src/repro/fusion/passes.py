"""Kernel-fusion passes over iteration traces (Sec. 6.1.1, Fig. 12a).

Eager execution launches one kernel per elementwise step and materializes
every intermediate to device memory.  Fusing a producer-consumer chain into
one kernel removes (a) the launch overhead of all but one kernel and (b)
the write+read of every intermediate tensor.  Both effects are computed
exactly here from the kernels' byte accounting; nothing about *time* is
assumed — the device model prices the fused trace like any other.

The pass fuses within ``fusion_group`` labels, which the trace generator
assigns to chains with actual data flow (GeLU steps, the DR+RC+LN tail,
scale+mask+softmax+dropout).  Kernels in *different* groups — e.g. the
update steps of different parameter tensors, which touch disjoint data —
are never merged, reflecting the paper's observation that fusing them
would not reduce memory traffic; the optimizer's fused form is emitted
directly by :mod:`repro.optim.kernels`.

:class:`ElementwiseChainFusionPass` is the one implementation of chain
fusion: chains are found by run-length grouping over the
``(fusion_code, phase, layer)`` code columns and collapsed with
``reduceat`` aggregations — no per-kernel Python scan.  Its output is
pinned bit-exactly by the kernel digests of ``tests/test_trace_digests.py``,
frozen from the per-kernel scan it replaced, and its FLOP/byte
conservation by ``tests/test_pass_invariants.py``.  :func:`fusion_impact`
prices an unfused and a fused table side by side (Fig. 12a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ops.base import OpClass
from repro.trace.kernel_table import (DTYPE_BYTES, PHASES, KernelTable,
                                      code_of)
from repro.trace.passes import PassContext, TracePass


class ElementwiseChainFusionPass(TracePass):
    """Vectorized same-group chain fusion over the code columns.

    A chain is a maximal run of consecutive rows sharing
    ``(fusion_code, phase, layer)`` with a fusion group set and no GEMMs.
    Runs collapse to their first row; the fused row's costs come from
    ``reduceat`` aggregations.  Each intermediate hand-off (the principal
    tensor between consecutive rows) stops being written by the producer
    and read by the consumer, a masked pairwise correction; side inputs
    (masks, residuals) and side outputs (saved masks, statistics) keep
    their traffic.  FLOPs are unchanged — fusion saves memory traffic and
    launches, not arithmetic.
    """

    name = "fuse_elementwise"

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        n = len(table)
        if n == 0:
            return table
        fusable = (table.fusion_code >= 0) & ~table.is_gemm
        # same[i]: row i continues the chain started at some earlier row.
        same = np.zeros(n, dtype=bool)
        same[1:] = (fusable[1:] & fusable[:-1]
                    & (table.fusion_code[1:] == table.fusion_code[:-1])
                    & (table.phase[1:] == table.phase[:-1])
                    & (table.layer[1:] == table.layer[:-1]))
        if not same.any():
            return table
        starts = np.flatnonzero(~same)
        run_len = np.diff(np.append(starts, n))
        out = table.take(starts)
        fused = np.flatnonzero(run_len > 1)  # positions of real chains

        flops = np.add.reduceat(table.flops, starts)
        bytes_read = np.add.reduceat(table.bytes_read, starts)
        bytes_written = np.add.reduceat(table.bytes_written, starts)
        n_elements = np.maximum.reduceat(table.n_elements, starts)
        has_reduction = np.logical_or.reduceat(
            table.op_class == code_of(OpClass.REDUCTION), starts)

        # Hand-off corrections: for every (producer i, consumer i+1) pair
        # inside a run, the producer stops writing and the consumer stops
        # reading the principal tensor.  Stored at the consumer's row, so a
        # reduceat over run starts sums exactly the in-run pairs.
        handoff = table.n_elements * DTYPE_BYTES[table.dtype]
        correction_w = np.zeros(n, dtype=np.int64)
        correction_r = np.zeros(n, dtype=np.int64)
        correction_w[1:] = np.where(
            same[1:], np.minimum(handoff[:-1], table.bytes_written[:-1]), 0)
        correction_r[1:] = np.where(
            same[1:], np.minimum(handoff[:-1], table.bytes_read[1:]), 0)
        bytes_read = np.maximum(
            0, bytes_read - np.add.reduceat(correction_r, starts))
        bytes_written = np.maximum(
            0, bytes_written - np.add.reduceat(correction_w, starts))

        op_class = np.where(has_reduction, code_of(OpClass.REDUCTION),
                            code_of(OpClass.ELEMENTWISE)).astype(np.int8)

        # Pool one fused name per distinct (fusion group, phase) pair.
        start_rows = starts[fused]
        pair = (table.fusion_code[start_rows].astype(np.int64) * len(PHASES)
                + table.phase[start_rows])
        unique_pairs, inverse = np.unique(pair, return_inverse=True)
        pool = list(out.names)
        pool_index = {name: code for code, name in enumerate(pool)}
        pair_codes = np.empty(len(unique_pairs), dtype=np.int32)
        for j, value in enumerate(unique_pairs):
            group = table.fusion_groups[int(value) // len(PHASES)]
            phase = PHASES[int(value) % len(PHASES)]
            fused_name = f"fused.{group}.{phase.value}"
            code = pool_index.get(fused_name)
            if code is None:
                code = len(pool)
                pool.append(fused_name)
                pool_index[fused_name] = code
            pair_codes[j] = code

        return out.rewrite_rows(
            fused, provenance=self.name,
            name_code=pair_codes[inverse], names=tuple(pool),
            op_class=op_class[fused],
            flops=flops[fused],
            bytes_read=bytes_read[fused],
            bytes_written=bytes_written[fused],
            n_elements=n_elements[fused])


def _ratio(before: float, after: float, what: str) -> float:
    """Before/after ratio, guarded: both-empty is a no-op (1.0)."""
    if not after:
        if not before:
            return 1.0
        raise ValueError(f"empty fused side: {what} ratio is undefined")
    return before / after


@dataclass(frozen=True)
class FusionImpact:
    """Fig. 12a metrics: what fusion changed.

    Attributes:
        kernels_before/after: launch counts.
        bytes_before/after: total memory traffic.
        time_before/after: modeled execution time (seconds).
    """

    kernels_before: int
    kernels_after: int
    bytes_before: int
    bytes_after: int
    time_before: float
    time_after: float

    @property
    def kernel_ratio(self) -> float:
        return _ratio(self.kernels_before, self.kernels_after, "kernel")

    @property
    def bytes_ratio(self) -> float:
        return _ratio(self.bytes_before, self.bytes_after, "bytes")

    @property
    def time_ratio(self) -> float:
        return _ratio(self.time_before, self.time_after, "time")


def fusion_impact(before, after, device) -> FusionImpact:
    """Compare an unfused and a fused kernel set (tables or kernel lists)
    on a device."""
    from repro.hw.timing import trace_time

    before, after = KernelTable.coerce(before), KernelTable.coerce(after)
    return FusionImpact(
        kernels_before=len(before), kernels_after=len(after),
        bytes_before=int(before.bytes_total.sum()),
        bytes_after=int(after.bytes_total.sum()),
        time_before=trace_time(before, device),
        time_after=trace_time(after, device),
    )
