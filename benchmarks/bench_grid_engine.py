"""Absolute-time benchmark of the batched grid-profiling engine.

Prices a 1000-point BERT Large grid (25 batch sizes x 20 sequence lengths
x {FP32, mixed}) with one :func:`repro.grid.engine.profile_grid` call —
each stamp family's distinct rows timed in one batched tile/wave-model
evaluation and gathered into every point's layout — cold per repeat
(fresh device, so the GEMM memo starts empty: what a first sweep over a
new grid pays).

It also times a cold :func:`repro.grid.engine.grid_summaries` over the
same 1000 points (fresh device and an empty disk cache per repeat): the
sweep path, stamping through per-point summary rows.

A handful of sampled points are cross-checked against
:func:`repro.experiments.common.run_point` — bit-identical totals, and
summary rows ``==`` :func:`repro.profiler.breakdown.summarize` of the
point's own profile — so the benchmark cannot silently time a diverged
fast path.

Writes ``BENCH_grid_engine.json`` at the repo root and exits non-zero if
the grid takes longer than ``MAX_GRID_SECONDS`` end-to-end or the
summaries longer than ``MAX_SUMMARIES_SECONDS``, so CI catches the engine
(or its summaries) regressing into per-point work.

Run: ``PYTHONPATH=src python benchmarks/bench_grid_engine.py``
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import BERT_LARGE, Precision, TrainingConfig
from repro.experiments.common import run_point
from repro.grid.engine import grid_points, grid_summaries, profile_grid
from repro.hw.device import mi100
from repro.runner.cache import configure_cache, reset_cache
from repro.trace.bert_trace import clear_iteration_traces

#: Maximum acceptable end-to-end grid time (build + stamp + price): a
#: tenth of what a cold ``run_point`` loop over the same 1000 points took
#: on its last recorded run (5.28 ms per point), rounded down, so the
#: engine regressing into per-point work fails.
MAX_GRID_SECONDS = 0.5

#: Maximum acceptable cold ``grid_summaries`` time for the same grid:
#: about 1.5x the 0.059-0.090 s measured pricing only each family's
#: distinct rows on a quiet to loaded 2-vCPU host, and below the
#: 0.16-0.19 s the same host took pricing every laid-out row, so that
#: regression fails.
MAX_SUMMARIES_SECONDS = 0.14

GRID_REPEATS = 3

BATCH_SIZES = (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40,
               48, 56, 64, 80, 96, 112, 128, 160, 192)
SEQ_LENS = (32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416,
            448, 480, 512, 576, 640, 704, 768)
PRECISIONS = (Precision.FP32, Precision.MIXED)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_grid_engine.json"


def _points() -> list[TrainingConfig]:
    return [TrainingConfig(batch_size=batch, seq_len=seq_len,
                           precision=precision)
            for batch in BATCH_SIZES
            for seq_len in SEQ_LENS
            for precision in PRECISIONS]


def _time_grid(points) -> tuple[float, int]:
    """Best-of-N end-to-end grid time (fresh device per repeat)."""
    best, rows = float("inf"), 0
    for _ in range(GRID_REPEATS):
        device = mi100()  # cold GEMM memo
        start = time.perf_counter()
        profile = profile_grid(grid_points(BERT_LARGE, points), device)
        best = min(best, time.perf_counter() - start)
        rows = int(np.sum(profile.trace.stops - profile.trace.starts))
    return best, rows


def _time_summaries(points) -> float:
    """Best-of-N cold ``grid_summaries`` time: fresh device and an empty
    disk cache per repeat, so every repeat stamps, prices and reduces."""
    best = float("inf")
    for _ in range(GRID_REPEATS):
        device = mi100()
        with tempfile.TemporaryDirectory(prefix="bench-grid-sum-") as root:
            configure_cache(root)
            start = time.perf_counter()
            grid_summaries(grid_points(BERT_LARGE, points), device)
            best = min(best, time.perf_counter() - start)
    reset_cache()
    return best


def _check_equivalence(points) -> None:
    """Spot-check grid totals and summary rows against ``run_point``,
    bit for bit."""
    from repro.profiler.breakdown import summarize

    device = mi100()
    profile = profile_grid(grid_points(BERT_LARGE, points), device)
    stride = max(1, len(points) // 7)
    with tempfile.TemporaryDirectory(prefix="bench-grid-eq-") as root:
        clear_iteration_traces()
        configure_cache(root)
        rows = grid_summaries(grid_points(BERT_LARGE, points), device)
        for index in range(0, len(points), stride):
            _, oracle = run_point(BERT_LARGE, points[index], device)
            grid_total = profile.point_total(index)
            if grid_total != oracle.total_time:
                raise AssertionError(
                    f"grid diverged from run_point at point {index} "
                    f"({points[index].label}): {grid_total!r} != "
                    f"{oracle.total_time!r}")
            if rows[index] != summarize(oracle):
                raise AssertionError(
                    f"grid summary row diverged from run_point at point "
                    f"{index} ({points[index].label})")
    reset_cache()
    clear_iteration_traces()


def run() -> dict:
    points = _points()
    _check_equivalence(points)
    grid_s, rows = _time_grid(points)
    summaries_s = _time_summaries(points)
    return {
        "model": "BERT Large",
        "device": "mi100",
        "points": len(points),
        "kernel_rows": rows,
        "grid_repeats": GRID_REPEATS,
        "grid_s": grid_s,
        "grid_per_point_ms": grid_s / len(points) * 1e3,
        "max_grid_seconds": MAX_GRID_SECONDS,
        "summaries_s": summaries_s,
        "max_summaries_seconds": MAX_SUMMARIES_SECONDS,
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(f"{payload['points']} points ({payload['kernel_rows']} kernel "
          f"rows): grid {payload['grid_s']:.3f}s "
          f"({payload['grid_per_point_ms']:.3f} ms/pt), cold summaries "
          f"{payload['summaries_s']:.3f}s")
    failed = False
    if payload["grid_s"] > MAX_GRID_SECONDS:
        print(f"FAIL: grid took {payload['grid_s']:.3f}s "
              f"> {MAX_GRID_SECONDS}s")
        failed = True
    if payload["summaries_s"] > MAX_SUMMARIES_SECONDS:
        print(f"FAIL: cold summaries took {payload['summaries_s']:.3f}s "
              f"> {MAX_SUMMARIES_SECONDS}s")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
