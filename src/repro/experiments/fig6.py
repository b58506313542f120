"""Fig. 6: arithmetic intensity of every training GEMM in a Transformer
layer (Ph1-B32-FP32).

Each GEMM is labeled ``tA,tB,M,N,K[,batch]`` exactly as in the paper; the
figure's point is the heterogeneity: FC GEMMs are extremely compute
intense, linear GEMMs ~4x less so, and attention batched GEMMs barely
above the memory roofline (Takeaways 5/6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.hw.device import DeviceModel, default_device
from repro.hw.gemm_model import gemm_time
from repro.ops.base import DType
from repro.ops.gemm import GemmShape
from repro.report.bars import horizontal_bar
from repro.trace.bert_trace import transformer_gemm_shapes


@dataclass(frozen=True)
class GemmIntensityRecord:
    """One Fig. 6 bar.

    Attributes:
        operation: sub-layer operation name (e.g. ``"fc1"``).
        pass_name: ``fwd`` / ``bwd_act`` / ``bwd_wt``.
        shape: the GEMM.
        intensity: ops/byte at FP32.
        memory_bound: whether the device model classifies it memory-bound.
    """

    operation: str
    pass_name: str
    shape: GemmShape
    intensity: float
    memory_bound: bool

    @property
    def label(self) -> str:
        return f"{self.operation}.{self.pass_name} [{self.shape.label}]"


def run(model: BertConfig = BERT_LARGE,
        training: TrainingConfig | None = None,
        device: DeviceModel | None = None,
        dtype: DType = DType.FP32) -> list[GemmIntensityRecord]:
    """Intensity records for every GEMM of one encoder layer."""
    training = training or training_point(1, 32, Precision.FP32)
    device = device or default_device()
    records = []
    for operation, passes in transformer_gemm_shapes(model, training).items():
        if operation == "linear_out":
            continue  # identical shape to "linear" at slicing=1
        for pass_name, shape in passes.items():
            breakdown = gemm_time(shape, dtype, device)
            records.append(GemmIntensityRecord(
                operation=operation, pass_name=pass_name, shape=shape,
                intensity=shape.arithmetic_intensity(dtype),
                memory_bound=breakdown.memory_bound))
    return records


def render(records: list[GemmIntensityRecord]) -> str:
    """ASCII bar chart of ops/byte per GEMM."""
    return horizontal_bar(
        [(r.label, r.intensity) for r in records], unit=" ops/B")
