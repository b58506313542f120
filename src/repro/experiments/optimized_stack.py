"""Capstone study: the paper's Sec. 6 optimizations stacked.

The paper's conclusion calls for "holistic solutions": fuse the
memory-bound elementwise chains (Sec. 6.1.1), fuse attention's score
pipeline (the Sec. 6.1 endpoint), and move the optimizer to near-memory
compute (Sec. 6.2.1).  This study applies them cumulatively to one
training iteration and reports the waterfall — where the remaining time
goes after each step, and the compound speedup.

Each stage is a :class:`~repro.trace.passes.PassManager` pipeline run
through :func:`~repro.experiments.common.run_point` over the shared
iteration trace, so the rewrites stay columnar end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.experiments.common import default_device, run_point
from repro.fusion.attention_fusion import FusedAttentionPass
from repro.fusion.passes import ElementwiseChainFusionPass
from repro.hw.device import DeviceModel
from repro.nmc.model import NmcConfig, hbm2_bank_nmc
from repro.nmc.offload import optimizer_workload
from repro.ops.base import Component
from repro.report.tables import format_table
from repro.trace.passes import PassManager


@dataclass(frozen=True)
class WaterfallStep:
    """One stage of the optimization waterfall.

    Attributes:
        name: which optimization was added.
        iteration_s: iteration time with everything up to here applied.
        kernels: kernel count at this stage.
    """

    name: str
    iteration_s: float
    kernels: int

    def speedup_vs(self, baseline: "WaterfallStep") -> float:
        return baseline.iteration_s / self.iteration_s


def run(model: BertConfig = BERT_LARGE,
        training: TrainingConfig | None = None,
        device: DeviceModel | None = None,
        nmc: NmcConfig | None = None) -> list[WaterfallStep]:
    """Apply the Sec. 6 optimizations cumulatively."""
    training = training or training_point(1, 32, Precision.FP32)
    device = device or default_device()
    nmc = nmc or hbm2_bank_nmc()

    stages = (
        ("baseline (eager)", PassManager(())),
        ("+ elementwise-chain fusion",
         PassManager((ElementwiseChainFusionPass(),))),
        ("+ fused attention",
         PassManager((ElementwiseChainFusionPass(), FusedAttentionPass()))),
    )
    steps: list[WaterfallStep] = []
    for name, manager in stages:
        trace, profile = run_point(model, training, device, passes=manager)
        steps.append(WaterfallStep(name, profile.total_time, len(trace)))

    # NMC offload of the optimizer: replace its GPU time with NMC time.
    flops, bytes_moved, groups = optimizer_workload(trace)
    optimizer_time = profile.time_of(component=Component.OPTIMIZER)
    nmc_time = nmc.execution_time(flops=flops, bytes_moved=bytes_moved,
                                  command_groups=groups)
    steps.append(WaterfallStep(
        "+ LAMB on near-memory compute",
        profile.total_time - optimizer_time + nmc_time,
        len(trace)))
    return steps


def render(steps: list[WaterfallStep]) -> str:
    baseline = steps[0]
    rows = [(step.name, f"{step.iteration_s * 1e3:.1f} ms", step.kernels,
             f"{step.speedup_vs(baseline):.2f}x")
            for step in steps]
    return format_table(("stage", "iteration", "kernels",
                         "cumulative speedup"), rows)
