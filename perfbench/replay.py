"""In-process replay of one workload's inputs, with or without spans.

Run by :mod:`tracing` as a fresh subprocess (``PYTHONPATH=src`` and an
isolated cache directory)::

    python3 perfbench/replay.py run-all --trace 1 --out spans.json
    python3 perfbench/replay.py serve --requests reqs.json --hot-cache-mb 64 \
        --trace 0 --out wall.json

``run-all`` replays ``runner.executor.run_experiments`` over the whole
registry twice (cold, then on the filled cache).  ``serve`` drives the
recorded request sequence, in order, through ``App.handle`` of an app
built with ``repro serve``'s defaults.  With ``--trace 1`` every layer
entry point in :data:`layers.ENTRY_POINTS` is wrapped first; the span
summary is written to ``--out`` together with the replay's wall time and
the program's own counters.  The untraced replay of the same inputs gives
the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import layers


def _replay_run_all() -> tuple[dict, int]:
    from repro.experiments.registry import REGISTRY
    from repro.runner.executor import run_experiments

    phases, failed = {}, 0
    for phase in ("cold", "warm"):
        started = time.perf_counter()
        results = run_experiments(list(REGISTRY), jobs=1)
        phases[phase] = time.perf_counter() - started
        failed += sum(1 for result in results if not result.ok)
    return phases, failed


def _replay_serve(requests: list, hot_cache_mb: int,
                  recorder: layers.Recorder | None) -> tuple[dict, int, list]:
    from repro.serve import App, HotCache

    app = App(hot_cache=HotCache(hot_cache_mb * 1024 * 1024))
    statuses = []

    async def drive() -> None:
        for index, (method, path, body) in enumerate(requests):
            token = layers.set_request(str(index))
            try:
                response = await app.handle(method, path, body.encode())
            finally:
                layers.reset_request(token)
            statuses.append(response.status)

    try:
        started = time.perf_counter()
        asyncio.run(drive())
        wall = time.perf_counter() - started
    finally:
        app.close()
    failed = sum(1 for status in statuses if status != 200)
    hot_self_ms = _hot_handle_self_ms(recorder.spans) if recorder else []
    return {"requests": wall}, failed, hot_self_ms


def _hot_handle_self_ms(spans: list[layers.SpanRecord]) -> list[float]:
    """Self time of each ``App.handle`` call answered by the hot cache."""
    hot_parents = {span.parent for span in spans
                   if span.name == "serve.hot_cache.get" and span.tag == "hit"}
    selfs = layers.self_times(spans)
    return [selfs[span.span_id] * 1e3 for span in spans
            if span.name == "serve.app.handle" and span.span_id in hot_parents]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("run-all", "serve"))
    parser.add_argument("--requests", default=None)
    parser.add_argument("--hot-cache-mb", type=int, default=64)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        recorder = layers.Recorder()
        layers.install(recorder)
    hot_self_ms: list[float] = []
    if args.workload == "run-all":
        phases, failed = _replay_run_all()
    else:
        with open(args.requests) as handle:
            requests = json.load(handle)
        phases, failed, hot_self_ms = _replay_serve(
            requests, args.hot_cache_mb, recorder)

    from repro.obs import metrics
    snapshot = metrics.get_registry().snapshot()
    out = {
        "phases": phases,
        "failed": failed,
        "spans": layers.aggregate(recorder.spans) if recorder else {},
        "hot_handle_self_ms": hot_self_ms,
        "hit_rates": metrics.hit_rates(snapshot),
        "counters": {name: sum(entry["series"].values())
                     for name, entry in snapshot.items()
                     if entry["kind"] == "counter"},
    }
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
