"""Before/after benchmark of the columnar pass pipeline.

Measures the trace-transform families — elementwise-chain + attention
fusion, activation checkpointing, and the windowed-attention swap — on a
BERT Large iteration trace, once through the legacy per-kernel list scans
(:mod:`repro.trace.reference`) and once through the vectorized
:class:`~repro.trace.passes.PassManager` pipelines.

The legacy side is charged what it actually costs end to end inside the
columnar repo: materializing ``trace.kernels`` from the table, running the
list-scan transforms, and re-columnarizing the result (``Trace.replaced``
builds a table: the rest of the stack consumes tables).  The columnar side
rewrites the table directly.  Each repeat wraps the base table in a fresh
trace view, so every legacy sample pays its own list materialization.

Writes ``BENCH_pass_pipeline.json`` at the repo root and exits non-zero if
the combined all-pipelines speedup drops below ``MIN_SPEEDUP``, so CI
catches a regression of the passes back into per-kernel scans.

Run: ``PYTHONPATH=src python benchmarks/bench_pass_pipeline.py``
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.config import BERT_LARGE, Precision, training_point
from repro.fusion.attention_fusion import FusedAttentionPass
from repro.fusion.passes import ElementwiseChainFusionPass
from repro.fusion.windowed_transform import WindowedAttentionPass
from repro.memoryplan.checkpointing import CheckpointingPass
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.builder import Trace
from repro.trace.passes import PassManager
from repro.trace.reference import (reference_apply_checkpointing,
                                   reference_apply_fused_attention,
                                   reference_apply_windowed_attention,
                                   reference_fuse_elementwise_chains)

#: Minimum acceptable combined (all pipelines) speedup.
MIN_SPEEDUP = 2.0

REPEATS = 3

TRAINING = training_point(1, 32, Precision.FP32)

PIPELINES = {
    "optimized": (
        lambda trace: reference_apply_fused_attention(
            reference_fuse_elementwise_chains(trace)),
        PassManager((ElementwiseChainFusionPass(), FusedAttentionPass())),
    ),
    "checkpointing": (
        reference_apply_checkpointing,
        PassManager((CheckpointingPass(),)),
    ),
    "windowed": (
        reference_apply_windowed_attention,
        PassManager((WindowedAttentionPass(),)),
    ),
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pass_pipeline.json"


def _run_legacy(base, transform) -> tuple[float, int]:
    trace = Trace(base.model, base.training, base.table)
    t0 = time.perf_counter()
    trace.kernels  # materialize: what list transforms cost in this repo
    out = transform(trace)  # re-columnarizes: the stack consumes tables
    t1 = time.perf_counter()
    return t1 - t0, len(out)


def _run_columnar(base, manager: PassManager) -> tuple[float, int]:
    trace = Trace(base.model, base.training, base.table)
    t0 = time.perf_counter()
    out = manager.run(trace)
    out.table
    t1 = time.perf_counter()
    return t1 - t0, len(out)


def run() -> dict:
    base = build_iteration_trace(BERT_LARGE, TRAINING)
    results = {}
    for name, (legacy_fn, manager) in PIPELINES.items():
        legacy_samples = [_run_legacy(base, legacy_fn)
                          for _ in range(REPEATS)]
        columnar_samples = [_run_columnar(base, manager)
                            for _ in range(REPEATS)]
        assert legacy_samples[0][1] == columnar_samples[0][1], name
        legacy = min(s[0] for s in legacy_samples)
        columnar = min(s[0] for s in columnar_samples)
        results[name] = {
            "signature": manager.signature,
            "kernels_in": len(base),
            "kernels_out": legacy_samples[0][1],
            "legacy_s": legacy,
            "columnar_s": columnar,
            "speedup": legacy / columnar,
        }
    total_legacy = sum(p["legacy_s"] for p in results.values())
    total_columnar = sum(p["columnar_s"] for p in results.values())
    return {
        "model": "BERT Large",
        "point": TRAINING.label,
        "repeats": REPEATS,
        "min_combined_speedup": MIN_SPEEDUP,
        "pipelines": results,
        "combined": {
            "legacy_s": total_legacy,
            "columnar_s": total_columnar,
            "speedup": total_legacy / total_columnar,
        },
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    for name, point in payload["pipelines"].items():
        print(f"{name}: {point['kernels_in']} -> {point['kernels_out']} "
              f"kernels | legacy {point['legacy_s'] * 1e3:.1f} ms, "
              f"columnar {point['columnar_s'] * 1e3:.1f} ms, "
              f"{point['speedup']:.1f}x")
    combined = payload["combined"]["speedup"]
    print(f"combined: {combined:.1f}x")
    if combined < MIN_SPEEDUP:
        print(f"FAIL: combined speedup {combined:.2f}x < {MIN_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
