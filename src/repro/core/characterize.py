"""The one-call characterization API — the paper's contribution as a tool.

Everything the paper derives about an operating point, produced in one
step: the kernel inventory, runtime/hierarchy breakdowns, GEMM
heterogeneity, memory footprint, energy, and the takeaway-relevant
fractions.  Examples and downstream users get the whole analysis through
:func:`characterize` without touching the individual subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BertConfig, Precision, TrainingConfig
from repro.hw.device import DeviceModel, mi100
from repro.hw.energy import EnergyReport, iteration_energy
from repro.memoryplan.footprint import MemoryFootprint, training_footprint
from repro.ops.base import Component, Region
from repro.profiler.breakdown import region_breakdown, summarize
from repro.profiler.profiler import Profile, profile_trace
from repro.report.tables import format_percent, format_table
from repro.trace.bert_trace import iteration_trace
from repro.trace.builder import Trace
from repro.trace.passes import PassManager
from repro.trace.validate import validate_trace


@dataclass(frozen=True)
class GemmClassSummary:
    """One GEMM family's aggregate behavior.

    Attributes:
        family: ``"fc"`` / ``"linear"`` / ``"attention"`` / ``"output"``.
        count: kernels per iteration.
        time_fraction: share of iteration time.
        min_intensity / max_intensity: ops/byte range across the family.
        memory_bound_count: kernels whose time is traffic-limited.
    """

    family: str
    count: int
    time_fraction: float
    min_intensity: float
    max_intensity: float
    memory_bound_count: int


@dataclass(frozen=True)
class Characterization:
    """Full characterization of one (model, training, device) point.

    Attributes:
        model / training: the operating point.
        device_name: device model used.
        trace: the kernel trace (validated).
        profile: the timed profile.
        iteration_s: modeled iteration time.
        summary: headline fractions (transformer/output/optimizer/GEMM...).
        regions: per-region fractions of iteration time.
        gemm_classes: GEMM heterogeneity summary (the Fig. 6 story).
        footprint: device-memory footprint.
        energy: iteration energy report.
    """

    model: BertConfig
    training: TrainingConfig
    device_name: str
    trace: Trace
    profile: Profile
    iteration_s: float
    summary: dict[str, float]
    regions: dict[Region, float]
    gemm_classes: list[GemmClassSummary]
    footprint: MemoryFootprint
    energy: EnergyReport

    @property
    def tokens_per_second(self) -> float:
        """Training throughput at this operating point."""
        return self.training.tokens_per_iteration / self.iteration_s

    def report(self) -> str:
        """Human-readable multi-section characterization report."""
        head = (f"{self.model.name} | {self.training.label} | "
                f"{self.device_name}\n"
                f"iteration {self.iteration_s * 1e3:.1f} ms  "
                f"({self.tokens_per_second:,.0f} tokens/s)   "
                f"kernels {len(self.trace)}   "
                f"footprint {self.footprint.total / 1e9:.1f} GB   "
                f"energy {self.energy.total_j:.1f} J")

        breakdown_rows = [
            (key, format_percent(self.summary[key]))
            for key in ("transformer", "output", "embedding", "optimizer",
                        "gemm", "non_gemm")]
        regions_rows = [(region.value, format_percent(fraction))
                        for region, fraction in self.regions.items()]
        gemm_rows = [(g.family, g.count, format_percent(g.time_fraction),
                      f"{g.min_intensity:.0f}-{g.max_intensity:.0f}",
                      f"{g.memory_bound_count}/{g.count}")
                     for g in self.gemm_classes]
        return "\n\n".join([
            head,
            format_table(("slice", "share"), breakdown_rows),
            format_table(("region", "share"), regions_rows),
            format_table(("GEMM family", "kernels", "time", "ops/byte",
                          "memory-bound"), gemm_rows),
        ])


_GEMM_FAMILIES = {
    "fc": lambda k: k.region is Region.FC_GEMM,
    "linear": lambda k: k.region is Region.ATTENTION_LINEAR,
    "attention": lambda k: k.region is Region.ATTENTION_BGEMM,
    "output": lambda k: k.component is Component.OUTPUT,
}


def _gemm_classes(profile: Profile) -> list[GemmClassSummary]:
    from repro.hw.gemm_model import gemm_time

    total = profile.total_time
    summaries = []
    for family, predicate in _GEMM_FAMILIES.items():
        records = profile.records_where(
            lambda k, predicate=predicate: k.op_class.is_gemm
            and predicate(k))
        if not records:
            continue
        intensities = [r.kernel.gemm.arithmetic_intensity(r.kernel.dtype)
                       for r in records]
        memory_bound = sum(
            1 for r in records
            if gemm_time(r.kernel.gemm, r.kernel.dtype,
                         profile.device).memory_bound)
        summaries.append(GemmClassSummary(
            family=family, count=len(records),
            time_fraction=sum(r.time_s for r in records) / total,
            min_intensity=min(intensities),
            max_intensity=max(intensities),
            memory_bound_count=memory_bound))
    return summaries


def characterize(model: BertConfig,
                 training: TrainingConfig | None = None,
                 device: DeviceModel | None = None,
                 passes: PassManager | None = None) -> Characterization:
    """Characterize one operating point end to end.

    Args:
        model: architecture configuration.
        training: operating point; defaults to Ph1-B32-FP32.
        device: device model; defaults to the MI100-like preset.
        passes: trace passes applied before profiling (e.g.
            ``build_pipeline("fuse_elementwise,fused_attention")``), the
            same type :func:`repro.experiments.common.run_point` takes —
            characterize the optimized variant of the workload.
    """
    training = training or TrainingConfig(batch_size=32, seq_len=128,
                                          precision=Precision.FP32)
    device = device or mi100()
    trace = iteration_trace(model, training)
    validate_trace(trace).raise_if_invalid()
    if passes is not None:
        # The manager validates the structure after every pass.
        trace = passes.run(trace)
    profile = profile_trace(trace, device)
    stats = summarize(profile)
    return Characterization(
        model=model, training=training, device_name=device.name,
        trace=trace, profile=profile,
        iteration_s=stats["total_time_s"],
        summary={k: v for k, v in stats.items() if k != "total_time_s"},
        regions={region: entry.fraction
                 for region, entry in region_breakdown(profile).items()},
        gemm_classes=_gemm_classes(profile),
        footprint=training_footprint(model, training),
        energy=iteration_energy(profile),
    )
