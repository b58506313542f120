"""Robustness study: which conclusions survive device-model perturbation.

The device model's efficiency constants are calibrated estimates, so an
honest reproduction must show the paper's *conclusions* do not hinge on
their exact values.  This study perturbs each knob (bandwidth ceilings,
GEMM achievable fractions, launch overhead) by substantial factors and
re-checks the architecture-relevant claims on every perturbed device:

1. the Transformer layers dominate the iteration;
2. LAMB's share grows as per-iteration tokens shrink;
3. mixed precision shrinks the GEMM share;
4. attention batched GEMMs stay memory-bound while FC GEMMs stay
   compute-bound;
5. higher n grows the attention-ops share at equal tokens.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import BERT_LARGE, BertConfig, Precision, training_point
from repro.experiments.common import run_point
from repro.hw.calibration import get_knobs, set_knobs
from repro.hw.device import DeviceModel, mi100
from repro.hw.gemm_model import gemm_time
from repro.ops.base import DType, Region
from repro.profiler.breakdown import region_breakdown, summarize
from repro.report.tables import format_table
from repro.trace.bert_trace import transformer_gemm_shapes

#: Perturbations applied one knob at a time: (label, knob or field, factor).
PERTURBATIONS: tuple[tuple[str, str, float], ...] = (
    ("streaming bw -25%", "streaming_bw", 0.75),
    ("streaming bw +25%", "streaming_bw", 1.25),
    ("multi-tensor bw -30%", "multi_tensor_bw", 0.70),
    ("gemm mem bw +30%", "gemm_mem_bw", 1.30),
    ("fp32 gemm eff -20%", "fp32_gemm_fraction", 0.80),
    ("fp16 gemm eff +20%", "fp16_gemm_fraction", 1.20),
    ("launch overhead x2", "kernel_launch_overhead_s", 2.0),
    ("launch overhead x0.5", "kernel_launch_overhead_s", 0.5),
)

CLAIMS = ("transformer_dominates", "lamb_grows_small_batch",
          "mp_shrinks_gemm_share", "attention_bgemm_memory_bound",
          "attention_grows_with_n")


@dataclass(frozen=True)
class RobustnessRow:
    """Claim checks on one perturbed device.

    Attributes:
        label: perturbation label (``"baseline"`` for the shipped model).
        results: claim name -> held?
    """

    label: str
    results: dict[str, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.results.values())


def _perturbed_device(base: DeviceModel, knob: str,
                      factor: float) -> DeviceModel:
    if knob == "kernel_launch_overhead_s":
        return dataclasses.replace(
            base, kernel_launch_overhead_s=base.kernel_launch_overhead_s
            * factor)
    knobs = get_knobs(base)
    knobs[knob] = min(1.0, knobs[knob] * factor)
    return set_knobs(base, knobs)


def _check_claims(device: DeviceModel, model: BertConfig) -> dict[str, bool]:
    b32 = training_point(1, 32, Precision.FP32)
    b4 = training_point(1, 4, Precision.FP32)
    b32_mp = training_point(1, 32, Precision.MIXED)
    ph2 = training_point(2, 4, Precision.FP32)
    ph1_b16 = training_point(1, 16, Precision.FP32)

    def stats(training):
        return summarize(run_point(model, training, device)[1])

    def attention_ops_share(training):
        regions = region_breakdown(run_point(model, training, device)[1])
        return (regions[Region.ATTENTION_BGEMM].fraction
                + regions[Region.ATTENTION_SMDSM].fraction)

    s32, s4, s_mp = stats(b32), stats(b4), stats(b32_mp)
    shapes = transformer_gemm_shapes(model, b32)
    score_bound = gemm_time(shapes["attn_score"]["fwd"], DType.FP32,
                            device).memory_bound
    fc_bound = gemm_time(shapes["fc1"]["fwd"], DType.FP32,
                         device).memory_bound
    return {
        "transformer_dominates": s32["transformer"] > 0.6,
        "lamb_grows_small_batch": s4["optimizer"] > 2 * s32["optimizer"],
        "mp_shrinks_gemm_share": s_mp["gemm"] < s32["gemm"] - 0.05,
        "attention_bgemm_memory_bound": score_bound and not fc_bound,
        "attention_grows_with_n": (attention_ops_share(ph2)
                                   > 1.5 * attention_ops_share(ph1_b16)),
    }


def run(model: BertConfig = BERT_LARGE) -> list[RobustnessRow]:
    """Check the claims on the shipped and every perturbed device."""
    base = mi100()
    rows = [RobustnessRow("baseline", _check_claims(base, model))]
    for label, knob, factor in PERTURBATIONS:
        device = _perturbed_device(base, knob, factor)
        rows.append(RobustnessRow(label, _check_claims(device, model)))
    return rows


def render(rows: list[RobustnessRow]) -> str:
    table = []
    for row in rows:
        table.append((row.label,
                      *("yes" if row.results[c] else "NO" for c in CLAIMS)))
    short = ("transformer", "LAMB@B4", "MP gemm", "bgemm bound", "attn vs n")
    return format_table(("perturbation", *short), table)
