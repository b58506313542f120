"""Absolute-time benchmark of the columnar kernel-table engine.

Measures the three hot stages of every experiment — trace build
(layer-templated), profiling (vectorized ``kernel_times``) and breakdown
aggregation (masked reductions) — for BERT Large at the paper's two
pre-training corners (Ph1-B32 and Ph2-B4).

Each repeat constructs fresh device objects so the per-device GEMM memo
starts cold — the reported time does not depend on cross-run caching.

Writes ``BENCH_profile_engine.json`` at the repo root and exits non-zero
if the best combined build+profile+breakdown time exceeds
``MAX_COMBINED_SECONDS`` on either operating point, so CI catches a
regression of the engine back into scalar paths or list scans.

Run: ``PYTHONPATH=src python benchmarks/bench_profile_engine.py``
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.config import BERT_LARGE, Precision, training_point
from repro.hw.device import mi100
from repro.profiler.breakdown import (region_breakdown,
                                      transformer_breakdown, summarize)
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace

#: Maximum acceptable combined (build+profile+breakdown) time per point:
#: a third of the 30.7-33.3 ms the scalar per-layer walk + timing loop
#: took on its last recorded run, rounded down, so a relapse into scalar
#: paths or list scans fails.
MAX_COMBINED_SECONDS = 0.010

REPEATS = 3

POINTS = {
    "ph1-b32": training_point(1, 32, Precision.FP32),
    "ph2-b4": training_point(2, 4, Precision.FP32),
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_profile_engine.json"


def _breakdowns(profile) -> None:
    summarize(profile)
    transformer_breakdown(profile)
    region_breakdown(profile)


def _run(training) -> dict[str, float]:
    device = mi100()
    t0 = time.perf_counter()
    trace = build_iteration_trace(BERT_LARGE, training)
    t1 = time.perf_counter()
    profile = profile_trace(trace, device)
    t2 = time.perf_counter()
    _breakdowns(profile)
    t3 = time.perf_counter()
    return {"build_s": t1 - t0, "profile_s": t2 - t1,
            "breakdown_s": t3 - t2, "combined_s": t3 - t0,
            "kernels": len(trace)}


def _best(training) -> dict[str, float]:
    """Best-of-N wall times (each repeat cold, fresh devices)."""
    samples = [_run(training) for _ in range(REPEATS)]
    best = {key: min(s[key] for s in samples)
            for key in ("build_s", "profile_s", "breakdown_s", "combined_s")}
    best["kernels"] = samples[0]["kernels"]
    return best


def run() -> dict:
    results = {}
    for name, training in POINTS.items():
        best = _best(training)
        results[name] = {"seq_len": training.seq_len,
                         "batch_size": training.batch_size, **best}
    return {
        "model": "BERT Large",
        "device": "mi100",
        "repeats": REPEATS,
        "max_combined_seconds": MAX_COMBINED_SECONDS,
        "points": results,
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    failed = False
    for name, point in payload["points"].items():
        print(f"{name}: {point['kernels']} kernels | "
              f"build {point['build_s'] * 1e3:.2f} ms, "
              f"profile {point['profile_s'] * 1e3:.2f} ms, "
              f"breakdown {point['breakdown_s'] * 1e3:.2f} ms, "
              f"combined {point['combined_s'] * 1e3:.2f} ms")
        if point["combined_s"] > MAX_COMBINED_SECONDS:
            print(f"FAIL: {name} combined {point['combined_s'] * 1e3:.2f} "
                  f"ms > {MAX_COMBINED_SECONDS * 1e3:.0f} ms")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
