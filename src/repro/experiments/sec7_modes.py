"""Sec. 7 (Discussion): inference and fine-tuning profiles.

Checks the paper's two extension claims numerically:

* fine-tuning keeps pre-training's profile with a negligible output layer
  ("the Transformer layers still dominate the runtime");
* inference drops backprop and LAMB, with the Transformer-layer breakdown
  similar to pre-training's forward slice ("backpropagation has
  approximately 2x more operations as a forward pass with similar
  properties").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.experiments.common import default_device, run_point
from repro.hw.device import DeviceModel
from repro.profiler.breakdown import summarize
from repro.profiler.profiler import profile_trace
from repro.report.tables import format_percent, format_table
from repro.trace.variants import build_finetuning_trace, build_inference_trace


@dataclass(frozen=True)
class ModeProfile:
    """Summary of one execution mode.

    Attributes:
        mode: ``"pretraining"`` / ``"finetuning"`` / ``"inference"``.
        total_s: modeled time for one pass/iteration.
        transformer/output/optimizer: fractions of that time.
        gemm: GEMM share.
    """

    mode: str
    total_s: float
    transformer: float
    output: float
    optimizer: float
    gemm: float


def run(model: BertConfig = BERT_LARGE,
        training: TrainingConfig | None = None,
        device: DeviceModel | None = None) -> list[ModeProfile]:
    """Profiles of the three execution modes at one operating point."""
    training = training or training_point(1, 32, Precision.FP32)
    device = device or default_device()
    # Fine-tuning and inference are not training operating points.
    pretraining = run_point(model, training, device)[1]
    finetuning = build_finetuning_trace(model, training)
    inference = build_inference_trace(model, training)
    profiles = []
    for mode, profile in (("pretraining", pretraining),
                          ("finetuning", profile_trace(finetuning, device)),
                          ("inference", profile_trace(inference, device))):
        stats = summarize(profile)
        profiles.append(ModeProfile(
            mode=mode, total_s=stats["total_time_s"],
            transformer=stats["transformer"], output=stats["output"],
            optimizer=stats["optimizer"], gemm=stats["gemm"]))
    return profiles


def render(profiles: list[ModeProfile]) -> str:
    rows = [(p.mode, f"{p.total_s * 1e3:.1f} ms",
             format_percent(p.transformer), format_percent(p.output),
             format_percent(p.optimizer), format_percent(p.gemm))
            for p in profiles]
    return format_table(("mode", "time", "transformer", "output", "LAMB",
                         "GEMMs"), rows)
