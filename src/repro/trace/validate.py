"""Trace invariant validation.

A defensive checker for generated traces: structural properties every
well-formed training-iteration trace must satisfy.  Used by the test suite
and available to users who build custom traces.  The checks read the
trace's table columns; only rows that fail one become kernel objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ops.base import Component, Phase
from repro.ops.gemm import dims_flops
from repro.trace.builder import Trace
from repro.trace.kernel_table import PHASES, KernelTable, code_of


@dataclass
class ValidationReport:
    """Outcome of validating a trace.

    Attributes:
        errors: invariant violations (empty means the trace is valid).
        warnings: suspicious-but-legal findings.
    """

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ValueError("invalid trace:\n" + "\n".join(self.errors))


def validate_trace(trace: Trace, *, training_iteration: bool = True
                   ) -> ValidationReport:
    """Check structural invariants of a kernel trace.

    Args:
        trace: the trace to check.
        training_iteration: also enforce training-specific ordering
            (forward before backward before optimizer; backward GEMM FLOPs
            ~2x forward within the encoder).

    Invariants checked:
        * every GEMM kernel carries a shape whose FLOPs match the record;
        * no kernel has negative or absurd byte counts;
        * phases appear in FWD -> BWD -> OPT order (training only);
        * encoder backward GEMM FLOPs are twice forward (training only);
        * every encoder kernel is layer-attributed;
        * layer indices are contiguous from zero.
    """
    report = ValidationReport()
    table = trace.table
    anchor = np.append(dims_flops(table.gemm_dims), 0)[table.gemm_code]
    suspect = ((table.is_gemm & ((table.gemm_code < 0)
                                 | (table.flops != anchor)))
               | ((table.bytes_total == 0) & (table.flops == 0))
               | ((table.component == code_of(Component.TRANSFORMER))
                  & (table.layer < 0)))
    # Only the rows a check flags become kernel objects.
    for kernel in table.kernels_at(np.flatnonzero(suspect)):
        if kernel.op_class.is_gemm:
            if kernel.gemm is None:
                report.errors.append(f"{kernel.name}: GEMM without shape")
            elif kernel.flops < kernel.gemm.flops:
                report.errors.append(
                    f"{kernel.name}: flops {kernel.flops} below anchor "
                    f"shape flops {kernel.gemm.flops}")
            elif kernel.flops > kernel.gemm.flops:
                # Legal for fused GEMM kernels carrying extra arithmetic.
                report.warnings.append(
                    f"{kernel.name}: fused GEMM kernel "
                    f"({kernel.flops / kernel.gemm.flops:.2f}x anchor)")
        if kernel.bytes_total == 0 and kernel.flops == 0:
            report.warnings.append(f"{kernel.name}: does no work")
        if (kernel.component is Component.TRANSFORMER
                and kernel.layer_index is None):
            report.errors.append(
                f"{kernel.name}: encoder kernel without layer index")

    layers = np.unique(table.layer[table.layer >= 0]).tolist()
    if layers and layers != list(range(layers[-1] + 1)):
        report.errors.append(f"non-contiguous layer indices: {layers}")

    if training_iteration:
        _check_phase_order(table, report)
        _check_backward_ratio(table, report)
    return report


def _check_phase_order(table: KernelTable, report: ValidationReport) -> None:
    """FWD kernels must precede BWD, which must precede OPT."""
    # Phase codes run FWD < BWD < OPT < COMM; COMM ranks with OPT.
    rank = np.minimum(table.phase, code_of(Phase.OPTIMIZER))
    drops = np.flatnonzero(np.diff(rank) < 0)
    if len(drops):
        row = drops[0] + 1
        report.errors.append(
            f"{table.names[table.name_code[row]]}: phase "
            f"{PHASES[table.phase[row]].value} appears after a later phase")


def _check_backward_ratio(table: KernelTable,
                          report: ValidationReport) -> None:
    """Encoder backward GEMM FLOPs must be ~2x forward (Sec. 7)."""
    replayed = np.array([name.startswith("recompute.")
                         for name in table.names], dtype=bool)
    encoder = (table.is_gemm & ~replayed[table.name_code]
               & (table.component == code_of(Component.TRANSFORMER)))

    def gemm_flops(phase: Phase) -> int:
        return int(table.flops[encoder
                               & (table.phase == code_of(phase))].sum())

    fwd = gemm_flops(Phase.FORWARD)
    bwd = gemm_flops(Phase.BACKWARD)
    if fwd == 0:
        if bwd:
            report.errors.append("backward GEMMs without forward GEMMs")
        return
    ratio = bwd / fwd
    if not 1.8 <= ratio <= 2.2:
        report.errors.append(
            f"encoder backward/forward GEMM FLOP ratio {ratio:.2f} "
            "outside [1.8, 2.2]")
