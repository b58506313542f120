"""Sec. 7: architecture-agnostic transferability of the takeaways.

The paper argues one can "approximately extrapolate these proportions to
another device by comparing the device's compute and memory bandwidth
ratios," and that takeaways about memory-boundedness "will either hold or
be amplified" as compute outpaces memory.  This study runs the Ph1-B32
profile on several device models and checks:

* devices with similar compute/bandwidth ratios produce similar
  breakdowns (MI100-like vs. V100-like);
* a compute-heavy device (A100-like) shifts time toward the memory-bound
  operations, never away from them;
* the qualitative orderings (Transformer dominates; FC > linear >
  attention B-GEMM; LAMB second at small batch) hold on every device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel, a100_like, mi100, v100_like
from repro.ops.base import DType
from repro.profiler.breakdown import summarize
from repro.report.tables import format_percent, format_table


@dataclass(frozen=True)
class DeviceProfileRow:
    """One device's headline fractions at the reference operating point.

    Attributes:
        device_name: device label.
        balance: effective FP32 GEMM ops/byte machine balance.
        iteration_s: modeled iteration time.
        gemm / non_gemm / optimizer / transformer: runtime fractions.
    """

    device_name: str
    balance: float
    iteration_s: float
    gemm: float
    non_gemm: float
    optimizer: float
    transformer: float


def run(model: BertConfig = BERT_LARGE,
        training: TrainingConfig | None = None,
        devices: tuple[DeviceModel, ...] | None = None
        ) -> list[DeviceProfileRow]:
    """Profile the same iteration on every device."""
    training = training or training_point(1, 32, Precision.FP32)
    devices = devices or (mi100(), v100_like(), a100_like())
    rows = []
    for device in devices:
        stats = summarize(run_point(model, training, device)[1])
        rows.append(DeviceProfileRow(
            device_name=device.name,
            balance=device.machine_balance(DType.FP32),
            iteration_s=stats["total_time_s"],
            gemm=stats["gemm"], non_gemm=stats["non_gemm"],
            optimizer=stats["optimizer"],
            transformer=stats["transformer"]))
    return rows


def render(rows: list[DeviceProfileRow]) -> str:
    table = [(r.device_name, f"{r.balance:.0f} ops/B",
              f"{r.iteration_s * 1e3:.0f} ms",
              format_percent(r.gemm), format_percent(r.non_gemm),
              format_percent(r.optimizer), format_percent(r.transformer))
             for r in rows]
    return format_table(("device", "balance", "iteration", "GEMM",
                         "non-GEMM", "LAMB", "transformer"), table)
