"""Evaluating LAMB offload to near-memory compute (Sec. 6.2.1).

The paper offloads only the optimizer: LAMB is a pure elementwise/reduction
phase invoked once per iteration after all gradient writes, so offloading
it needs no fine-grained GPU<->NMC synchronization, and GPU-side kernel
fusion cannot reduce its traffic further (each stage already streams each
operand exactly once).

Two comparisons are reported, as in the paper:

* speedup of LAMB itself against an **optimistic GPU baseline** whose time
  is just the minimal algorithm traffic at full pin bandwidth;
* end-to-end iteration improvement when the *modeled* LAMB time in the
  profile is replaced by the NMC time (5-22% across configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import BertConfig, TrainingConfig
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel
from repro.nmc.model import NmcConfig
from repro.ops.base import Component
from repro.trace.kernel_table import KernelTable
from repro.trace.passes import PassContext, TracePass


@dataclass(frozen=True)
class LambOffloadResult:
    """Outcome of offloading LAMB to NMC for one training point.

    Attributes:
        label: training-point label.
        lamb_gpu_actual_s: modeled GPU LAMB time in the baseline profile.
        lamb_gpu_optimistic_s: minimal-traffic-at-pin-bandwidth baseline.
        lamb_nmc_s: NMC execution time.
        iteration_baseline_s: full iteration time on the GPU.
        iteration_nmc_s: iteration time with LAMB on NMC.
    """

    label: str
    lamb_gpu_actual_s: float
    lamb_gpu_optimistic_s: float
    lamb_nmc_s: float
    iteration_baseline_s: float
    iteration_nmc_s: float

    @property
    def lamb_speedup_vs_optimistic(self) -> float:
        """The paper's 3.8x headline comparison."""
        return self.lamb_gpu_optimistic_s / self.lamb_nmc_s

    @property
    def end_to_end_improvement(self) -> float:
        """Fractional iteration-time reduction (the 5-22% band)."""
        return 1.0 - self.iteration_nmc_s / self.iteration_baseline_s


def optimizer_workload(trace) -> tuple[int, int, int]:
    """(flops, bytes, kernel count) of a trace's optimizer phase.

    A columnar masked reduction; accepts anything
    :meth:`KernelTable.coerce` does (Trace, KernelTable, kernel iterable).
    """
    table = KernelTable.coerce(trace)
    optimizer = table.mask(component=Component.OPTIMIZER)
    flops = int(table.flops[optimizer].sum())
    moved = int(table.bytes_total[optimizer].sum())
    return flops, moved, int(np.count_nonzero(optimizer))


class OptimizerOffloadPass(TracePass):
    """Drop optimizer rows from the GPU trace — NMC executes them instead.

    The dropped work is what :func:`optimizer_workload` measures on the
    *un*-offloaded trace; :func:`evaluate_lamb_offload` prices it on the
    NMC model and splices the time back into the iteration.
    """

    name = "offload_optimizer"

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        keep = ~table.mask(component=Component.OPTIMIZER)
        if keep.all():
            return table
        return table.select(keep)


def evaluate_lamb_offload(model: BertConfig, training: TrainingConfig,
                          device: DeviceModel,
                          nmc: NmcConfig) -> LambOffloadResult:
    """Offload the optimizer phase of one training point to NMC."""
    trace, profile = run_point(model, training, device)
    flops, bytes_moved, groups = optimizer_workload(trace)

    lamb_actual = profile.time_of(component=Component.OPTIMIZER)
    lamb_optimistic = bytes_moved / device.peak_bandwidth
    lamb_nmc = nmc.execution_time(flops=flops, bytes_moved=bytes_moved,
                                  command_groups=groups)

    baseline = profile.total_time
    return LambOffloadResult(
        label=training.label,
        lamb_gpu_actual_s=lamb_actual,
        lamb_gpu_optimistic_s=lamb_optimistic,
        lamb_nmc_s=lamb_nmc,
        iteration_baseline_s=baseline,
        iteration_nmc_s=baseline - lamb_actual + lamb_nmc,
    )
