"""Fig. 7: arithmetic intensity and bandwidth demand of BERT's operation
groups (Ph1-B32-FP32).

For each phase — the GEMM families, LAMBStage1/2, Scale+Mask+DR+SM, GeLU
and DR+RC+LN — reports ops/byte and achieved memory bandwidth normalized
to the highest achieved by any BERT operation (the elementwise multiply),
exactly the two panels of the paper's Fig. 7.

Paper shape: every non-GEMM group sits at single-digit ops/byte with high
normalized bandwidth; attention batched GEMMs demand ~70% of the EW-mult
bandwidth while FC GEMMs demand only ~20%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (BERT_LARGE, BertConfig, Precision, TrainingConfig,
                          training_point)
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel
from repro.ops.base import OpClass, Region
from repro.profiler.profiler import Profile
from repro.report.tables import format_table
from repro.trace.kernel_table import KernelTable


@dataclass(frozen=True)
class OpGroupRecord:
    """One Fig. 7 group.

    Attributes:
        label: group label.
        flops/bytes_total/time_s: totals over the group's kernels.
        intensity: ops per byte.
        bandwidth: achieved bytes/s.
        normalized_bandwidth: relative to the EW-multiply reference.
    """

    label: str
    flops: int
    bytes_total: int
    time_s: float
    normalized_bandwidth: float

    @property
    def intensity(self) -> float:
        return self.flops / self.bytes_total if self.bytes_total else 0.0

    @property
    def bandwidth(self) -> float:
        return self.bytes_total / self.time_s if self.time_s else 0.0


def _group_masks(table: KernelTable) -> list[tuple[str, np.ndarray]]:
    """(label, row mask) for every Fig. 7 bar."""
    gemm = table.is_gemm
    return [
        ("FC GEMMs", table.mask(region=Region.FC_GEMM) & gemm),
        ("Linear GEMMs", table.mask(region=Region.ATTENTION_LINEAR) & gemm),
        ("Attn B-GEMMs", table.mask(region=Region.ATTENTION_BGEMM) & gemm),
        ("LAMBStage1", table.mask(region=Region.OPT_STAGE1)),
        ("LAMBStage2", table.mask(region=Region.OPT_STAGE2)),
        ("Scale+Mask+DR+SM", table.mask(region=Region.ATTENTION_SMDSM)),
        ("GeLU", table.mask(region=Region.FC_GELU)),
        ("DR+RC+LN", table.mask(region=Region.DR_RC_LN)),
        ("EW multiply", table.mask(op_class=OpClass.ELEMENTWISE,
                                   region=Region.DR_RC_LN)
         & table.name_contains("dropout")),
    ]


def _group_totals(profile: Profile,
                  mask: np.ndarray) -> tuple[int, int, float]:
    table = profile.table
    flops = int(table.flops[mask].sum())
    moved = int(table.bytes_total[mask].sum())
    # Python's sum in row order: np.sum's pairwise order changes the bits.
    time_s = sum(profile.times[mask].tolist())
    return flops, moved, time_s


def run(model: BertConfig = BERT_LARGE,
        training: TrainingConfig | None = None,
        device: DeviceModel | None = None) -> list[OpGroupRecord]:
    """Compute the Fig. 7 records."""
    training = training or training_point(1, 32, Precision.FP32)
    _, profile = run_point(model, training, device)

    raw = []
    for label, mask in _group_masks(profile.table):
        flops, moved, time_s = _group_totals(profile, mask)
        if time_s <= 0:
            raise ValueError(f"group {label!r} matched no kernels")
        raw.append((label, flops, moved, time_s))

    reference = max(moved / time_s for _, _, moved, time_s in raw)
    return [OpGroupRecord(label=label, flops=flops, bytes_total=moved,
                          time_s=time_s,
                          normalized_bandwidth=(moved / time_s) / reference)
            for label, flops, moved, time_s in raw]


def render(records: list[OpGroupRecord]) -> str:
    """Two-column table: ops/byte and normalized bandwidth per group."""
    rows = [(r.label, f"{r.intensity:8.2f}",
             f"{r.normalized_bandwidth * 100:5.1f}%") for r in records]
    return format_table(("operation group", "ops/byte", "norm. bandwidth"),
                        rows)
