"""Extension study: windowed attention vs. sequence length.

Takeaway 10 projects attention operations dominating as ``n`` grows.  This
study quantifies the standard mitigation: block-local (windowed) attention
turns the quadratic score computation linear.  For each ``n`` it compares
the attention-operation time (batched GEMMs + scale/mask/softmax/dropout)
of the dense path against the windowed path, and the resulting share of a
full training iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BERT_LARGE, BertConfig, Precision, TrainingConfig
from repro.experiments.common import default_device, run_point
from repro.hw.device import DeviceModel
from repro.hw.timing import trace_time
from repro.ops.base import Component, DType, Region
from repro.ops.windowed_attention import (WindowConfig,
                                          windowed_attention_op_kernels)
from repro.report.tables import format_percent, format_table


@dataclass(frozen=True)
class WindowedRow:
    """Dense vs. windowed attention at one sequence length.

    Attributes:
        seq_len: sequence length ``n``.
        dense_attention_s: per-iteration dense attention-op time.
        windowed_attention_s: same under block-local attention.
        dense_share: attention ops' share of the dense iteration.
        windowed_share: share after substituting the windowed kernels.
        iteration_speedup: full-iteration speedup from windowing.
    """

    seq_len: int
    dense_attention_s: float
    windowed_attention_s: float
    dense_share: float
    windowed_share: float
    iteration_speedup: float


def run(model: BertConfig = BERT_LARGE,
        seq_lens: tuple[int, ...] = (128, 256, 512),
        tokens_budget: int = 2048,
        window: WindowConfig | None = None,
        device: DeviceModel | None = None) -> list[WindowedRow]:
    """Sweep ``n`` at a fixed token budget (B shrinks as n grows).

    Matches the paper's Fig. 8 methodology of holding ``B * n`` constant
    so only the quadratic term moves.
    """
    device = device or default_device()
    window = window or WindowConfig()
    rows = []
    for seq_len in seq_lens:
        batch = max(1, tokens_budget // seq_len)
        training = TrainingConfig(batch_size=batch, seq_len=seq_len,
                                  precision=Precision.FP32)
        _, profile = run_point(model, training, device)
        iteration = profile.total_time
        dense_attention = profile.time_of(
            component=Component.TRANSFORMER,
            region=(Region.ATTENTION_BGEMM, Region.ATTENTION_SMDSM))

        windowed_kernels = windowed_attention_op_kernels(
            seq_len=seq_len, d_head=model.d_head,
            batch_heads=batch * model.num_heads, window=window,
            dtype=DType.FP32)
        windowed_attention = (model.num_layers
                              * trace_time(windowed_kernels, device))

        windowed_iteration = (iteration - dense_attention
                              + windowed_attention)
        rows.append(WindowedRow(
            seq_len=seq_len,
            dense_attention_s=dense_attention,
            windowed_attention_s=windowed_attention,
            dense_share=dense_attention / iteration,
            windowed_share=windowed_attention / windowed_iteration,
            iteration_speedup=iteration / windowed_iteration,
        ))
    return rows


def render(rows: list[WindowedRow]) -> str:
    table = [(row.seq_len,
              f"{row.dense_attention_s * 1e3:.1f} ms",
              f"{row.windowed_attention_s * 1e3:.1f} ms",
              format_percent(row.dense_share),
              format_percent(row.windowed_share),
              f"{row.iteration_speedup:.2f}x")
             for row in rows]
    return format_table(("n", "dense attn ops", "windowed attn ops",
                         "dense share", "windowed share",
                         "iteration speedup"), table)
