#!/usr/bin/env python
"""CI smoke check of the fault-injection subsystem and resilience stack.

Two legs, both driven by seeded :class:`~repro.faults.plan.FaultPlan`\\ s
so every run of this script injects the *same* schedule:

* **Runner chaos** — ``run_experiments`` under ≥50% worker kills, ≥30%
  cache-read corruption and slowed computes, against a fault-free
  baseline.  Every experiment must complete (retries absorb the kills,
  quarantine absorbs the corruption) and every completed output must be
  **byte-identical** to the fault-free run — the chaos-determinism
  invariant.  A warm-cache replay under 100% read corruption must
  quarantine entries and still reproduce the same bytes.

* **Serve chaos** — a live asyncio server (real sockets) under injected
  ``serve.fail``/``serve.slow`` faults, hit by a concurrent storm.
  Acceptance: zero wrong bytes (every 200 body is byte-identical to the
  fault-free rendering; degraded answers are stale bytes or 503/504,
  never garbage) and an availability floor — at least
  :data:`MIN_AVAILABILITY` of the storm answered 200.

Dependency-free (stdlib + the repo).  Writes a JSON summary artifact.
Exits nonzero on any problem.

Usage::

    python scripts/check_chaos.py [output-dir]
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.faults import sites
from repro.faults.plan import FaultPlan
from repro.runner.cache import configure_cache, get_cache, reset_cache
from repro.runner.executor import run_experiments
from repro.trace.bert_trace import clear_iteration_traces

#: Runner-leg experiments (small and fast; the invariant is per-byte).
IDS = ["fig4", "sec4", "fig6", "fig3"]

#: Runner chaos plan: kills force retries, corruption forces recomputes.
RUNNER_CHAOS = "worker.kill:0.5,cache.corrupt:0.3,compute.slow:1ms"
RUNNER_SEED = 11

#: Serve chaos plan: ~30% of compute attempts die, the rest are slowed.
SERVE_CHAOS = "serve.fail:0.3,serve.slow:5ms"
SERVE_SEED = 5

#: Storm shape and the availability floor CI enforces.
STORM_REQUESTS = 100
STORM_POINTS = ("tiny.ph1-b2-fp32", "fig8.ph1-b4-fp32")
MIN_AVAILABILITY = 0.90


def _fresh(root: Path, tag: str) -> None:
    configure_cache(root / f"cache-{tag}")
    clear_iteration_traces()


def check_runner(root: Path) -> dict:
    """Chaos-determinism over the batch runner; returns the summary."""
    sites.deactivate()
    _fresh(root, "baseline")
    baseline = run_experiments(IDS)
    if not all(r.ok for r in baseline):
        raise SystemExit("fault-free baseline failed: "
                         + ", ".join(r.experiment_id
                                     for r in baseline if not r.ok))
    reference = {r.experiment_id: r.output for r in baseline}

    _fresh(root, "chaos")
    plan = FaultPlan.parse(RUNNER_CHAOS, seed=RUNNER_SEED)
    sites.activate(plan)
    chaotic = run_experiments(IDS)
    failed = [r.experiment_id for r in chaotic if not r.ok]
    if failed:
        raise SystemExit(f"chaos run failed experiments: {failed} "
                         "(retries should have absorbed the kills)")
    mismatched = [r.experiment_id for r in chaotic
                  if r.output != reference[r.experiment_id]]
    if mismatched:
        raise SystemExit("CHAOS-DETERMINISM VIOLATION: outputs moved "
                         f"under faults: {mismatched}")
    retries = sum(r.counters.get("retries", 0) for r in chaotic)
    if retries < 1:
        raise SystemExit("chaos run absorbed no retries; the plan "
                         "injected nothing (seed/schedule drift?)")

    # Warm replay under total read corruption: every cached entry is
    # quarantined and recomputed — bytes still must not move.
    sites.activate(FaultPlan.parse("cache.corrupt:1", seed=RUNNER_SEED))
    clear_iteration_traces()
    replay = run_experiments(IDS)
    sites.deactivate()
    if not all(r.ok for r in replay):
        raise SystemExit("corrupted-cache replay failed")
    mismatched = [r.experiment_id for r in replay
                  if r.output != reference[r.experiment_id]]
    if mismatched:
        raise SystemExit("CHAOS-DETERMINISM VIOLATION on corrupted "
                         f"replay: {mismatched}")
    quarantined = get_cache().stats.corrupt
    if quarantined < 1:
        raise SystemExit("100% corruption plan quarantined nothing")

    print(f"ok: runner chaos — {len(IDS)} experiments byte-identical "
          f"under {RUNNER_CHAOS!r} (retries={retries}, "
          f"quarantined={quarantined})")
    return {"experiments": IDS, "plan": plan.spec(), "seed": RUNNER_SEED,
            "retries": retries, "quarantined": quarantined,
            "byte_identical": True}


async def _get(host: str, port: int, path: str) -> tuple[int, dict, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: c\r\n\r\n".encode())
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        return status, headers, body
    finally:
        writer.close()


async def _serve_leg(root: Path) -> dict:
    from repro.resilience.retry import Retry
    from repro.serve import App, HotCache, create_server, server_address

    # Fault-free reference bytes for every storm point.
    sites.deactivate()
    _fresh(root, "serve-reference")
    app = App(workers=4, queue_limit=64, hot_cache=HotCache())
    server = await create_server(app)
    host, port = server_address(server)
    reference: dict[str, bytes] = {}
    try:
        for point in STORM_POINTS:
            status, _, body = await _get(host, port, f"/profile/{point}")
            if status != 200:
                raise SystemExit(f"reference request for {point} -> "
                                 f"{status}")
            reference[point] = body
    finally:
        server.close()
        await server.wait_closed()
        app.close()

    # Storm the same points with serve faults active.
    _fresh(root, "serve-chaos")
    sites.activate(FaultPlan.parse(SERVE_CHAOS, seed=SERVE_SEED))
    app = App(workers=4, queue_limit=64, hot_cache=HotCache(),
              retry=Retry(max_attempts=4, base_delay_s=0.005,
                          max_delay_s=0.05, deadline_s=30.0))
    server = await create_server(app)
    host, port = server_address(server)
    try:
        started = time.perf_counter()
        responses = await asyncio.gather(*(
            _get(host, port,
                 f"/profile/{STORM_POINTS[i % len(STORM_POINTS)]}")
            for i in range(STORM_REQUESTS)))
        wall_s = time.perf_counter() - started
    finally:
        server.close()
        await server.wait_closed()
        app.close()
        sites.deactivate()

    ok = sum(1 for status, _, _ in responses if status == 200)
    wrong = []
    for i, (status, headers, body) in enumerate(responses):
        point = STORM_POINTS[i % len(STORM_POINTS)]
        if status == 200 and body != reference[point]:
            wrong.append(point)
        if status not in (200, 503, 504):
            wrong.append(f"status-{status}")
    if wrong:
        raise SystemExit(f"serve chaos produced wrong answers: {wrong} "
                         "(degradation must be stale bytes or 503/504)")
    availability = ok / len(responses)
    if availability < MIN_AVAILABILITY:
        raise SystemExit(f"availability {availability:.1%} under "
                         f"{SERVE_CHAOS!r} below the "
                         f"{MIN_AVAILABILITY:.0%} floor")

    print(f"ok: serve chaos — {len(responses)} requests under "
          f"{SERVE_CHAOS!r}: {ok} x 200, zero wrong bytes, "
          f"availability {availability:.1%} (wall {wall_s * 1e3:.0f}ms)")
    return {"plan": SERVE_CHAOS, "seed": SERVE_SEED,
            "requests": len(responses), "ok": ok,
            "availability": availability, "wall_s": wall_s,
            "zero_wrong_bytes": True}


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "chaos-smoke")
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    try:
        with tempfile.TemporaryDirectory(prefix="check-chaos-") as root:
            summary["runner"] = check_runner(Path(root))
            summary["serve"] = asyncio.run(_serve_leg(Path(root)))
    finally:
        sites.deactivate()
        reset_cache()
        clear_iteration_traces()
        (out / "chaos-summary.json").write_text(
            json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'chaos-summary.json'}")
    print("chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
