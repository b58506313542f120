"""Table 1: numeric verification of every takeaway.

Each of the paper's 13 takeaways (plus the five numbered observations that
are checkable) is evaluated against the reproduction's own models and
reported as a pass/fail with the supporting numbers — the repo-level
equivalent of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BERT_LARGE, C2, C3, Precision, training_point)
from repro.distributed.network import PCIE4
from repro.distributed.tensor_slicing import tensor_slicing_timeline
from repro.experiments import fig4, fig9, fig12, nmc_study
from repro.experiments.common import default_device, run_point
from repro.ops.base import Component, DType
from repro.profiler.breakdown import summarize
from repro.report.tables import format_table
from repro.trace.parameters import bert_parameter_inventory


@dataclass(frozen=True)
class TakeawayCheck:
    """One verified takeaway.

    Attributes:
        takeaway_id: paper numbering (``"T1"``..``"T13"``, ``"O1"``...).
        claim: abbreviated statement.
        holds: whether the reproduction's numbers support it.
        evidence: the load-bearing measured values.
    """

    takeaway_id: str
    claim: str
    holds: bool
    evidence: str


def _summaries():
    device = default_device()
    points = {
        "b32_fp32": training_point(1, 32, Precision.FP32),
        "b4_fp32": training_point(1, 4, Precision.FP32),
        "b32_mp": training_point(1, 32, Precision.MIXED),
        "ph2_b4_fp32": training_point(2, 4, Precision.FP32),
    }
    out = {}
    for key, training in points.items():
        _, profile = run_point(BERT_LARGE, training, device)
        out[key] = summarize(profile)
    return out


def run() -> list[TakeawayCheck]:
    """Evaluate every checkable takeaway."""
    checks: list[TakeawayCheck] = []
    s = _summaries()
    device = default_device()

    # T1: LAMB second-highest contributor; grows as tokens shrink.
    lamb_b32 = s["b32_fp32"]["optimizer"]
    lamb_b4 = s["b4_fp32"]["optimizer"]
    checks.append(TakeawayCheck(
        "T1", "LAMB is the 2nd-highest runtime contributor and grows as "
        "token count per iteration shrinks",
        holds=(s["b32_fp32"]["transformer"] > lamb_b32 > s["b32_fp32"]["output"]
               and lamb_b4 > 2 * lamb_b32),
        evidence=f"LAMB {lamb_b32:.1%} @B32 -> {lamb_b4:.1%} @B4"))

    # T2: LAMB more important under mixed precision.
    lamb_mp = s["b32_mp"]["optimizer"]
    checks.append(TakeawayCheck(
        "T2", "LAMB share grows under mixed precision",
        holds=lamb_mp > 1.5 * lamb_b32,
        evidence=f"LAMB {lamb_b32:.1%} FP32 -> {lamb_mp:.1%} MP"))

    # T3: GEMMs speed up more than other ops under MP.
    gemm_fp32, gemm_mp = s["b32_fp32"]["gemm"], s["b32_mp"]["gemm"]
    checks.append(TakeawayCheck(
        "T3", "Reduced precision shrinks the GEMM share of runtime",
        holds=gemm_mp < gemm_fp32 - 0.10,
        evidence=f"GEMM share {gemm_fp32:.1%} FP32 -> {gemm_mp:.1%} MP"))

    # T4: attention operations are a small slice.
    rows = fig4.run()
    attn_fp32 = rows["fp32"].attention_ops
    attn_mp = rows["mixed"].attention_ops
    checks.append(TakeawayCheck(
        "T4", "Attention ops are a small share (<=15%) at n=128",
        holds=attn_fp32 < 0.15 and attn_mp < 0.18 and attn_mp > attn_fp32,
        evidence=f"attention ops {attn_fp32:.1%} FP32, {attn_mp:.1%} MP"))

    # T5: B=1 still yields matrix-matrix operations in the encoder layers
    # (unlike RNNs).  The tiny NSP classifier head is out of scope.
    b1 = training_point(1, 1, Precision.FP32)
    trace_b1, _ = run_point(BERT_LARGE, b1, device)
    table_b1 = trace_b1.table
    encoder = (table_b1.is_gemm
               & table_b1.mask(component=Component.TRANSFORMER))
    min_gemm_dim = int(
        table_b1.gemm_dims[table_b1.gemm_code[encoder], :3].min())
    checks.append(TakeawayCheck(
        "T5", "Mini-batch of one does not produce matrix-vector ops in "
        "Transformer layers",
        holds=min_gemm_dim > 1,
        evidence=f"smallest encoder GEMM dim at B=1 is {min_gemm_dim}"))

    # T6: attention batched GEMMs are memory-bound at n=128.
    from repro.hw.gemm_model import gemm_time
    from repro.trace.bert_trace import transformer_gemm_shapes
    shapes = transformer_gemm_shapes(BERT_LARGE,
                                     training_point(1, 32, Precision.FP32))
    score_bound = gemm_time(shapes["attn_score"]["fwd"], DType.FP32,
                            device).memory_bound
    fc_bound = gemm_time(shapes["fc1"]["fwd"], DType.FP32,
                         device).memory_bound
    checks.append(TakeawayCheck(
        "T6", "Attention B-GEMMs are memory-bound, FC GEMMs compute-bound",
        holds=score_bound and not fc_bound,
        evidence=f"score memory_bound={score_bound}, fc1={fc_bound}"))

    # T7: LAMB stage 1 reads 4x the model size.
    params = sum(t.n_elements for t in bert_parameter_inventory(BERT_LARGE))
    trace, _ = run_point(BERT_LARGE, training_point(1, 32, Precision.FP32),
                         device)
    table = trace.table
    stage1_reads = int(table.bytes_read[
        table.mask(component=Component.OPTIMIZER)
        & table.name_contains("stage1")].sum())
    model_bytes = params * 4
    ratio = stage1_reads / model_bytes
    checks.append(TakeawayCheck(
        "T7", "LAMB stage 1 reads ~4x the model size",
        holds=3.5 <= ratio <= 4.5,
        evidence=f"stage-1 reads {ratio:.2f}x model size"))

    # T8/T9: memory-bound non-GEMM share in FP32 and MP.
    non_gemm_fp32 = s["b32_fp32"]["non_gemm"]
    non_gemm_mp = s["b32_mp"]["non_gemm"]
    checks.append(TakeawayCheck(
        "T8", "Memory-bound non-GEMM ops are a large FP32 share (~30%+)",
        holds=non_gemm_fp32 >= 0.28,
        evidence=f"non-GEMM {non_gemm_fp32:.1%} of FP32 runtime"))
    checks.append(TakeawayCheck(
        "T9", "Non-GEMM share grows under MP (~46%)",
        holds=non_gemm_mp > non_gemm_fp32 + 0.10,
        evidence=f"non-GEMM {non_gemm_fp32:.1%} FP32 -> {non_gemm_mp:.1%} MP"))

    # T10: larger n makes attention ops important.
    ph2 = fig4.run_one(training_point(2, 4, Precision.FP32))
    ph1 = fig4.run_one(training_point(1, 16, Precision.FP32))
    checks.append(TakeawayCheck(
        "T10", "Attention ops' share grows superlinearly with n",
        holds=ph2.attention_ops > 1.8 * ph1.attention_ops,
        evidence=(f"attention ops {ph1.attention_ops:.1%} @n=128 -> "
                  f"{ph2.attention_ops:.1%} @n=512 (equal tokens)")))

    # T11: GEMM and LAMB shares grow with layer width.
    width_rows = fig9.run()
    c2_row = next(r for r in width_rows if r.config_name == C2.name)
    c3_row = next(r for r in width_rows if r.config_name == C3.name)
    checks.append(TakeawayCheck(
        "T11", "Linear+FC GEMM and LAMB proportions grow with layer width",
        holds=(c3_row.regions.linear_and_fc > c2_row.regions.linear_and_fc
               and c3_row.optimizer > c2_row.optimizer),
        evidence=(f"C2->C3: linear+FC {c2_row.regions.linear_and_fc:.1%}->"
                  f"{c3_row.regions.linear_and_fc:.1%}, "
                  f"LAMB {c2_row.optimizer:.1%}->"
                  f"{c3_row.optimizer:.1%}")))

    # T12: LAMB share shrinks with tensor-slicing ways.
    t1 = tensor_slicing_timeline(BERT_LARGE,
                                 training_point(1, 16, Precision.FP32),
                                 device, PCIE4, 2)
    t2 = tensor_slicing_timeline(BERT_LARGE,
                                 training_point(1, 16, Precision.FP32),
                                 device, PCIE4, 8)
    checks.append(TakeawayCheck(
        "T12", "LAMB share drops as tensor-slicing ways grow",
        holds=t2.optimizer_fraction < t1.optimizer_fraction < lamb_b32 * 2,
        evidence=(f"LAMB {t1.optimizer_fraction:.1%} @2-way -> "
                  f"{t2.optimizer_fraction:.1%} @8-way")))

    # T13: TS communication share grows with device count.
    checks.append(TakeawayCheck(
        "T13", "Tensor-slicing communication grows with device count",
        holds=t2.communication_fraction > t1.communication_fraction,
        evidence=(f"comm {t1.communication_fraction:.1%} @2-way -> "
                  f"{t2.communication_fraction:.1%} @8-way")))

    # NMC headline (Sec. 6.2.1).
    nmc_results = nmc_study.run()
    speedups = [r.lamb_speedup_vs_optimistic for r in nmc_results]
    gains = [r.end_to_end_improvement for r in nmc_results]
    checks.append(TakeawayCheck(
        "NMC", "Bank-level NMC speeds LAMB ~3.8x and training 5-22%",
        holds=(all(3.0 <= x <= 4.5 for x in speedups)
               and min(gains) >= 0.04 and max(gains) <= 0.30),
        evidence=(f"LAMB speedup {min(speedups):.2f}-{max(speedups):.2f}x, "
                  f"end-to-end {min(gains):.1%}-{max(gains):.1%}")))

    # Fusion headline (Fig. 12).
    fusion = fig12.run()
    checks.append(TakeawayCheck(
        "FUS", "LN fusion ~6-8x on kernels/traffic/runtime; Adam fusion "
        "~250x kernels but only ~6-8x traffic",
        holds=(5.0 <= fusion.layernorm.kernel_ratio <= 9.0
               and 5.0 <= fusion.layernorm.bytes_ratio <= 9.0
               and fusion.adam.kernel_ratio > 100
               and fusion.adam.bytes_ratio < 10),
        evidence=(f"LN {fusion.layernorm.kernel_ratio:.0f}x kernels / "
                  f"{fusion.layernorm.bytes_ratio:.1f}x traffic; Adam "
                  f"{fusion.adam.kernel_ratio:.0f}x kernels / "
                  f"{fusion.adam.bytes_ratio:.1f}x traffic")))
    return checks


def render(checks: list[TakeawayCheck]) -> str:
    rows = [(c.takeaway_id, "PASS" if c.holds else "FAIL", c.claim,
             c.evidence) for c in checks]
    return format_table(("id", "status", "claim", "evidence"), rows)
