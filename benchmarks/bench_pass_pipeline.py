"""Absolute-time benchmark of the columnar pass pipeline.

Measures the trace-transform families — elementwise-chain + attention
fusion, activation checkpointing, and the windowed-attention swap — on a
BERT Large iteration trace through the vectorized
:class:`~repro.trace.passes.PassManager` pipelines, which rewrite the
kernel table directly.  Each repeat wraps the base table in a fresh trace
view, so no sample reuses another's output.

Writes ``BENCH_pass_pipeline.json`` at the repo root and exits non-zero if
the combined all-pipelines time exceeds ``MAX_COMBINED_SECONDS``, so CI
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

#: Maximum acceptable combined (all pipelines) time: half of the 46.9 ms
#: the per-kernel list scans took on their last recorded run, rounded
#: down, so a relapse into per-kernel scans fails.
MAX_COMBINED_SECONDS = 0.023

REPEATS = 3

TRAINING = training_point(1, 32, Precision.FP32)

PIPELINES = {
    "optimized": PassManager((ElementwiseChainFusionPass(),
                              FusedAttentionPass())),
    "checkpointing": PassManager((CheckpointingPass(),)),
    "windowed": PassManager((WindowedAttentionPass(),)),
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_pass_pipeline.json"


def _run(base, manager: PassManager) -> tuple[float, int]:
    trace = Trace(base.model, base.training, base.table)
    t0 = time.perf_counter()
    out = manager.run(trace)
    out.table
    t1 = time.perf_counter()
    return t1 - t0, len(out)


def run() -> dict:
    base = build_iteration_trace(BERT_LARGE, TRAINING)
    results = {}
    for name, manager in PIPELINES.items():
        samples = [_run(base, manager) for _ in range(REPEATS)]
        results[name] = {
            "signature": manager.signature,
            "kernels_in": len(base),
            "kernels_out": samples[0][1],
            "time_s": min(s[0] for s in samples),
        }
    return {
        "model": "BERT Large",
        "point": TRAINING.label,
        "repeats": REPEATS,
        "max_combined_seconds": MAX_COMBINED_SECONDS,
        "pipelines": results,
        "combined_s": sum(p["time_s"] for p in results.values()),
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    for name, point in payload["pipelines"].items():
        print(f"{name}: {point['kernels_in']} -> {point['kernels_out']} "
              f"kernels | {point['time_s'] * 1e3:.2f} ms")
    combined = payload["combined_s"]
    print(f"combined: {combined * 1e3:.2f} ms")
    if combined > MAX_COMBINED_SECONDS:
        print(f"FAIL: combined {combined * 1e3:.2f} ms "
              f"> {MAX_COMBINED_SECONDS * 1e3:.0f} ms")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
