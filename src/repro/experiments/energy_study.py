"""Extension study: where the energy goes, and what fusion/NMC save.

The paper's optimization section is motivated by data movement (kernel
fusion removes duplicate DRAM traffic; NMC removes the off-chip round
trip).  This study prices one training iteration in joules: per-region
dynamic energy, the data-movement share, and the savings from (a) fusing
the elementwise chains and (b) running LAMB's traffic at bank-internal
energy on NMC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.experiments.common import default_device
from repro.hw.device import DeviceModel
from repro.hw.energy import (EnergySpec, default_energy_spec,
                             iteration_energy, trace_energy)
from repro.ops.base import Component
from repro.profiler.profiler import profile_trace
from repro.report.tables import format_percent, format_table
from repro.trace.bert_trace import iteration_trace
from repro.trace.passes import build_pipeline


@dataclass(frozen=True)
class EnergyStudyResult:
    """Energy accounting of one operating point.

    Attributes:
        label: operating-point label.
        dynamic_j / static_j: baseline iteration energy split.
        movement_fraction: data movement's share of dynamic energy.
        fused_dynamic_j: dynamic energy after elementwise-chain fusion.
        lamb_j / lamb_nmc_j: optimizer energy on GPU vs. on NMC.
    """

    label: str
    dynamic_j: float
    static_j: float
    movement_fraction: float
    fused_dynamic_j: float
    lamb_j: float
    lamb_nmc_j: float

    @property
    def fusion_savings(self) -> float:
        return 1.0 - self.fused_dynamic_j / self.dynamic_j

    @property
    def nmc_lamb_savings(self) -> float:
        return 1.0 - self.lamb_nmc_j / self.lamb_j


def run_one(training: TrainingConfig, model: BertConfig = BERT_LARGE,
            device: DeviceModel | None = None,
            spec: EnergySpec | None = None) -> EnergyStudyResult:
    """Energy accounting at one operating point."""
    device = device or default_device()
    spec = spec or default_energy_spec()
    trace = iteration_trace(model, training)
    profile = profile_trace(trace, device)
    report = iteration_energy(profile, spec)

    fused_dynamic = trace_energy(
        build_pipeline("fuse_elementwise").run(trace), spec)

    optimizer = trace.table.select(
        trace.table.mask(component=Component.OPTIMIZER))
    return EnergyStudyResult(
        label=training.label,
        dynamic_j=report.dynamic_j,
        static_j=report.static_j,
        movement_fraction=report.movement_fraction,
        fused_dynamic_j=fused_dynamic,
        lamb_j=trace_energy(optimizer, spec),
        lamb_nmc_j=trace_energy(optimizer, spec, nmc=True),
    )


def run(model: BertConfig = BERT_LARGE,
        device: DeviceModel | None = None) -> list[EnergyStudyResult]:
    """FP32 and mixed-precision energy accounting at Ph1-B32."""
    return [run_one(training_point(1, 32, Precision.FP32), model, device),
            run_one(training_point(1, 32, Precision.MIXED), model, device)]


def render(results: list[EnergyStudyResult]) -> str:
    rows = [(r.label, f"{r.dynamic_j:.1f} J", f"{r.static_j:.1f} J",
             format_percent(r.movement_fraction),
             format_percent(r.fusion_savings),
             format_percent(r.nmc_lamb_savings))
            for r in results]
    return format_table(
        ("point", "dynamic", "static", "movement share",
         "fusion saves (dyn)", "NMC saves (LAMB)"), rows)
