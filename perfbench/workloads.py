"""The three workloads, measured end to end with tracing off.

Each ``measure_*`` function returns a :class:`Report`: the end-to-end
metrics gated in ``BENCHMARK.json`` (``setup_s``, ``cold_ms``,
``warm_ms``), the workload's own named metrics (``run_all_cold_s``,
``read_p99_ms``, ...) printed for people, the correctness verdicts, and
the attempted/failed operation counts.

The gated metrics mean the same thing on every workload:

* ``setup_s`` -- time before the program can do the workload's work:
  the ``repro list`` import for ``run-all``, spawn to first ``/healthz``
  200 for the server workloads.  Median of several set-ups per run.
* ``cold_ms`` -- median time of one operation no cache can answer: a
  ``run all`` on an empty cache, one pass requesting every point's
  ``/profile`` and ``/perfetto`` on a fresh server, one first-time sweep.
* ``warm_ms`` -- median time of one operation answered from a cache: a
  ``run all`` on the filled cache, or a hot read at a fixed open-loop
  rate, timed from its due time (beside sweeps on ``serve-sweep``).

Every run spends about ``--seconds`` in total: set-ups first, then the
measured phase for what is left (at least half of it).
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import loadgen
from harness import (BenchmarkError, Connection, Scratch, Server,
                     http_get_once, quantile, run_repro, tail_quantile)

#: Fresh servers per ``serve-read`` run, each timed to health and given
#: one cold pass: ``setup_s`` and ``cold_ms`` are medians over them.
READ_SERVERS = 10

#: Fresh servers per ``serve-sweep`` run (``setup_s`` only).
SWEEP_SERVERS = 8

#: Open-loop read rate of ``serve-read``, below the knee where p99
#: latency on a 2-CPU host swings from milliseconds to seconds.
REFERENCE_RPS = 250

#: Latency limit of the open loops: the rate counts as met when p99 is
#: under it, nothing fails and the backlog drains within it after the
#: last due time.
LATENCY_LIMIT_MS = 50.0

#: Open-loop read rate beside the sweeps.
SWEEP_READ_RPS = 100

#: Hot-cache budget for ``serve-sweep``: smaller than the sweep working
#: set, so LRU eviction and disk-cache reads are on the measured path.
SWEEP_HOT_CACHE_MB = 2

#: Takeaway checks of Table 1, all of which must hold.
TABLE1_CHECKS = 15


@dataclass
class Report:
    """What one run measured and checked, for printing."""

    workload: str
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Check name -> (held every time, detail, times checked); the detail
    #: is the latest one, or the first failure's.
    verdicts: dict[str, tuple[bool, str, int]] = field(default_factory=dict)
    phases: dict[str, dict] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    moves: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        held, kept, count = self.verdicts.get(name, (True, "", 0))
        if held:  # until the first failure, keep the latest detail
            kept = detail
        self.verdicts[name] = (held and bool(ok), kept, count + 1)

    @property
    def correct(self) -> bool:
        return all(held for held, _, _ in self.verdicts.values())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------------------ run-all
def _manifest(state_dir) -> dict:
    manifests = sorted((state_dir / "runs").glob("*.json"))
    if not manifests:
        raise BenchmarkError(f"no run manifest under {state_dir / 'runs'}")
    return json.loads(manifests[-1].read_text())


def run_all_once(scratch: Scratch, report: Report
                 ) -> tuple[float, float, str, list[dict]]:
    """One cold + warm ``run all`` pair on a fresh cache; checks both.

    Returns the two wall times, the digest of the (identical) stdout and
    the two run manifests.
    """
    state = scratch.fresh("run-all")
    walls, outputs, manifests = [], [], []
    for phase in ("cold", "warm"):
        wall, result = run_repro(["run", "all", "--jobs", "1"], state)
        report.attempted += 1
        manifest = _manifest(state)
        for path in sorted((state / "runs").glob("*.json")):
            path.rename(path.with_suffix(f".{phase}"))
        rows = manifest.get("experiments", [])
        ok = (result.returncode == 0 and rows
              and all(row.get("ok") for row in rows))
        if not ok:
            report.failed += 1
        report.check(f"{phase} run all exits 0, every manifest row ok",
                     ok, f"exit {result.returncode}, "
                     f"{sum(1 for r in rows if r.get('ok'))}/{len(rows)} ok")
        bands = next((row.get("bands") for row in rows
                      if row.get("experiment_id") == "table1"), None) or {}
        report.check(f"{phase} table1 {TABLE1_CHECKS}/{TABLE1_CHECKS}",
                     bands.get("passed") == TABLE1_CHECKS
                     and bands.get("failed") == 0,
                     f"{bands.get('passed')}/{TABLE1_CHECKS}")
        walls.append(wall)
        outputs.append(result.stdout)
        manifests.append(manifest)
    report.check("cold and warm stdout byte-identical",
                 outputs[0] == outputs[1],
                 f"{_digest(outputs[0])} vs {_digest(outputs[1])}")
    report.check("warm run served every experiment from the cache",
                 all(row.get("experiment_cached") == 1
                     for row in manifests[1]["experiments"]))
    return walls[0], walls[1], _digest(outputs[0]), manifests


def measure_run_all(seconds: float, seed: int) -> Report:
    """``run-all``: ``repro list``, then a cold and a warm ``repro run all
    --jobs 1``, repeated until ``seconds`` are spent (at least three
    times), so every metric's samples span the whole run.

    The input is the fixed experiment registry, so ``seed`` is unused.
    """
    del seed
    deadline = time.perf_counter() + seconds
    report = Report("run-all")
    scratch = Scratch()
    setups, colds, warms, digests = [], [], [], set()
    try:
        while len(colds) < 3 or (time.perf_counter() + setups[-1]
                                 + colds[-1] + warms[-1] <= deadline):
            wall, result = run_repro(["list"], scratch.fresh("list"))
            report.attempted += 1
            report.failed += result.returncode != 0
            report.check("repro list exits 0", result.returncode == 0,
                         f"exit {result.returncode}")
            setups.append(wall)
            cold, warm, digest, _ = run_all_once(scratch, report)
            colds.append(cold)
            warms.append(warm)
            digests.add(digest)
    finally:
        scratch.close()
    report.check("stdout identical across every pair", len(digests) == 1,
                 f"{len(digests)} distinct digests over {len(colds)} pairs")
    report.phases["samples"] = {
        "setup_s": [round(x, 3) for x in setups],
        "cold_s": [round(x, 3) for x in colds],
        "warm_s": [round(x, 3) for x in warms]}
    report.end_to_end = {
        "setup_s": (median(setups), "s"),
        "cold_ms": (median(colds) * 1e3, "ms"),
        "warm_ms": (median(warms) * 1e3, "ms"),
    }
    report.named = {
        "run_all_cold_s": (median(colds), "s"),
        "run_all_warm_s": (median(warms), "s"),
        "pairs": (len(colds), "count"),
        "failed_pct": (100.0 * report.failed / report.attempted, "%"),
    }
    return report


# ------------------------------------------------------------------ serving
def cold_pass(port: int, paths: list[str]
              ) -> tuple[float, dict[str, bytes], int]:
    """Request every path once, sequentially; (wall s, bodies, failures)."""
    bodies, failures = {}, 0
    with Connection(port) as connection:
        started = time.perf_counter()
        for path in paths:
            status, body = connection.request("GET", path)
            if status != 200:
                failures += 1
            bodies[path] = body
        return time.perf_counter() - started, bodies, failures


def server_points(port: int) -> list[str]:
    status, body = http_get_once(port, "/points")
    if status != 200:
        raise BenchmarkError(f"GET /points answered {status}")
    return [point["id"] for point in json.loads(body)["points"]]


def server_stats(port: int) -> dict:
    status, body = http_get_once(port, "/stats")
    if status != 200:
        raise BenchmarkError(f"GET /stats answered {status}")
    return json.loads(body)


class ServeSetup:
    """Set-up of the server workloads: several fresh servers, each timed
    to health and given one cold pass; the last one is kept running.

    The bytes of the first cold pass are the reference every later
    response for the same key must equal.
    """

    def __init__(self, scratch: Scratch, report: Report, servers: int,
                 routes: tuple[str, ...], server_args: tuple[str, ...] = ()):
        self.setups, self.cold_passes = [], []
        self.reference: dict[str, bytes] = {}
        self.server = None
        for index in range(servers):
            server = Server(scratch.fresh("serve"), server_args)
            try:
                self.setups.append(server.setup_s)
                if not self.reference:
                    self.points = server_points(server.port)
                    self.paths = [f"/{route}/{point}"
                                  for point in self.points
                                  for route in routes]
                wall, bodies, failures = cold_pass(server.port, self.paths)
                report.attempted += len(self.paths)
                report.failed += failures
                self.cold_passes.append(wall)
                if not self.reference:
                    self.reference = bodies
                else:
                    report.check(
                        f"cold pass {index + 1} byte-identical to pass 1",
                        bodies == self.reference)
            except BaseException:
                server.stop()
                raise
            if index + 1 < servers:
                server.stop()
            else:
                self.server = server
        report.phases["set-up"] = {
            "setup_s": [round(x, 3) for x in self.setups],
            "cold_pass_s": [round(x, 3) for x in self.cold_passes]}
        report.check("every cold-pass request answered 200",
                     report.failed == 0, f"{report.failed} failed")


def verify_reads(report: Report, reference: dict[str, bytes], outcomes,
                 label: str) -> None:
    """Every read 200 and byte-identical to its key's warm-up bytes."""
    wrong = [o for o in outcomes if o.ok and o.body != reference[o.path]]
    failed = [o for o in outcomes if not o.ok]
    report.attempted += len(outcomes)
    report.failed += len(failed)
    report.check(f"{label}: every read 200", not failed,
                 f"{len(failed)}/{len(outcomes)} failed"
                 + (f" (first: {failed[0].status} {failed[0].error})"
                    if failed else ""))
    report.check(f"{label}: every read byte-identical to its warm-up",
                 not wrong, f"{len(wrong)} differ")


def _remaining(started: float, seconds: float) -> float:
    """What is left of the run's ``seconds`` after set-up, but at least
    half of them, so a slow set-up cannot starve the measured phase."""
    return max(started + seconds - time.perf_counter(), seconds / 2)


def _latencies(outcomes) -> list[float]:
    return [o.latency_ms for o in outcomes]


def read_phase(port: int, rng: random.Random, points: list[str],
               rate: float, seconds: float) -> loadgen.OpenLoopResult:
    """Open-loop reads at ``rate`` for ``seconds`` over 2 connections."""
    offsets = loadgen.poisson_offsets(rng, rate, seconds)
    paths = loadgen.read_paths(points, rng, len(offsets),
                               loadgen.PERFETTO_SHARE)
    with Connection(port) as first, Connection(port) as second:
        return loadgen.open_loop([first, second], offsets, paths,
                                 time.perf_counter() + 0.05,
                                 LATENCY_LIMIT_MS / 1e3)


def _rate_summary(report: Report, label: str,
                  result: loadgen.OpenLoopResult) -> dict:
    latencies = _latencies(result.outcomes)
    ok = [o for o in result.outcomes if o.ok]
    summary = {
        "sent": len(result.outcomes), "succeeded": len(ok),
        "failed": result.failed,
        "p50_ms": quantile(latencies, 0.5),
        "p99_ms": quantile(latencies, 0.99),
        "late_p99_ms": quantile(result.late_ms, 0.99),
        "drained": result.drained,
    }
    summary["met"] = (summary["failed"] == 0 and result.drained
                      and summary["p99_ms"] <= LATENCY_LIMIT_MS)
    report.phases[label] = summary
    return summary


def measure_serve_read(seconds: float, seed: int) -> Report:
    """``serve-read``: cold passes on fresh servers, then hot open-loop
    reads at the reference rate for the rest of the run."""
    started = time.perf_counter()
    report = Report("serve-read")
    rng = random.Random(seed)
    scratch = Scratch()
    setup = None
    try:
        setup = ServeSetup(scratch, report, READ_SERVERS,
                           ("profile", "perfetto"))
        reads = read_phase(setup.server.port, rng, setup.points,
                           REFERENCE_RPS, _remaining(started, seconds))
        verify_reads(report, setup.reference, reads.outcomes,
                     f"{REFERENCE_RPS} req/s")
        summary = _rate_summary(report, f"read@{REFERENCE_RPS}", reads)
    finally:
        if setup is not None and setup.server is not None:
            setup.server.stop()
        scratch.close()

    latencies = _latencies(reads.outcomes)
    report.end_to_end = {
        "setup_s": (median(setup.setups), "s"),
        "cold_ms": (median(setup.cold_passes) * 1e3, "ms"),
        "warm_ms": (summary["p50_ms"], "ms"),
    }
    report.named = {
        "cold_pass_s": (median(setup.cold_passes), "s"),
        "read_p50_ms": (summary["p50_ms"], "ms"),
        "read_p99_ms": (summary["p99_ms"], "ms"),
        "read_samples": (len(latencies), "count"),
        "loadgen.late_p99_ms": (summary["late_p99_ms"], "ms"),
        "failed_pct": (100.0 * report.failed / report.attempted, "%"),
    }
    return report


def check_sweeps(report: Report, specs: list[dict], outcomes) -> list:
    """rows == points, failed == 0, repeats byte-identical; first-timers."""
    first_seen: dict[bytes, bytes] = {}
    fresh, bad, repeats_differ = [], [], 0
    for spec, outcome in zip(specs, outcomes):
        body = loadgen.spec_body(spec)
        report.attempted += 1
        if not outcome.ok:
            report.failed += 1
            bad.append(f"{outcome.status} {outcome.error}")
            continue
        payload = json.loads(outcome.body)
        expected = loadgen.spec_points(spec)
        if not (payload["points"] == expected == len(payload["rows"])
                and payload["failed"] == 0):
            report.failed += 1
            bad.append(f"{payload['points']} points, {len(payload['rows'])} "
                       f"rows, {payload['failed']} failed; want {expected}")
        if body in first_seen:
            repeats_differ += first_seen[body] != outcome.body
        else:
            first_seen[body] = outcome.body
            fresh.append(outcome)
    report.check("every sweep 200 with rows == points and failed == 0",
                 not bad, f"{len(bad)} bad" + (f" (first: {bad[0]})"
                                               if bad else ""))
    report.check("every repeated spec byte-identical to its first reply",
                 repeats_differ == 0, f"{repeats_differ} differ, "
                 f"{len(outcomes) - len(first_seen)} repeats")
    return fresh


def sweep_phase(port: int, rng: random.Random, points: list[str],
                specs: list[dict], seconds: float
                ) -> tuple[list[loadgen.Outcome], loadgen.OpenLoopResult]:
    """Closed-loop sweeps on one connection (a thread) beside open-loop
    ``/profile`` reads on another, both for ``seconds``."""
    offsets = loadgen.poisson_offsets(rng, SWEEP_READ_RPS, seconds)
    paths = loadgen.read_paths(points, rng, len(offsets), 0.0)
    sweeps: list[loadgen.Outcome] = []
    with Connection(port) as sweeper, Connection(port) as reader:
        start = time.perf_counter()
        thread = threading.Thread(target=lambda: sweeps.extend(
            loadgen.closed_loop_sweeps(sweeper, specs, start + seconds)))
        thread.start()
        try:
            reads = loadgen.open_loop([reader], offsets, paths, start,
                                      LATENCY_LIMIT_MS / 1e3)
        finally:
            thread.join()
    return sweeps, reads


def measure_serve_sweep(seconds: float, seed: int) -> Report:
    """``serve-sweep``: closed-loop sweeps beside open-loop hot reads."""
    started = time.perf_counter()
    report = Report("serve-sweep")
    rng = random.Random(seed)
    specs = loadgen.grid_specs(random.Random(seed + 1), 4000)
    scratch = Scratch()
    setup = None
    try:
        setup = ServeSetup(scratch, report, SWEEP_SERVERS, ("profile",),
                           ("--hot-cache-mb", str(SWEEP_HOT_CACHE_MB)))
        port = setup.server.port
        sweeps, reads = sweep_phase(port, rng, setup.points, specs,
                                    _remaining(started, seconds))
        verify_reads(report, setup.reference, reads.outcomes,
                     "reads beside sweeps")
        read_summary = _rate_summary(report, f"read@{SWEEP_READ_RPS}", reads)
        stats = server_stats(port)
    finally:
        if setup is not None and setup.server is not None:
            setup.server.stop()
        scratch.close()

    fresh = check_sweeps(report, specs, sweeps)
    if len(fresh) < 10:
        raise BenchmarkError(f"only {len(fresh)} first-time sweeps finished; "
                             "give the run more --seconds")
    sweep_ms = [o.service_ms for o in sweeps]
    fresh_ms = [o.service_ms for o in fresh]
    points = sum(loadgen.spec_points(s) for s in specs[:len(sweeps)])
    busy_s = sum(sweep_ms) / 1e3
    read_ms = _latencies(reads.outcomes)
    tail_name, tail = tail_quantile(sweep_ms)
    report.end_to_end = {
        "setup_s": (median(setup.setups), "s"),
        "cold_ms": (median(fresh_ms), "ms"),
        "warm_ms": (quantile(read_ms, 0.5), "ms"),
    }
    hot = stats["hot_cache"]
    report.named = {
        "sweep_points_per_s": (points / busy_s, "points/s"),
        "sweep_p50_ms": (quantile(sweep_ms, 0.5), "ms"),
        f"sweep_{tail_name}_ms": (tail, "ms"),
        "sweeps": (len(sweeps), "count"),
        "read_under_sweep_p50_ms": (quantile(read_ms, 0.5), "ms"),
        "read_under_sweep_p99_ms": (quantile(read_ms, 0.99), "ms"),
        "read_samples": (len(read_ms), "count"),
        "loadgen.late_p99_ms": (read_summary["late_p99_ms"], "ms"),
        "hot_cache_evictions": (hot["evictions"], "count"),
        "failed_pct": (100.0 * report.failed / report.attempted, "%"),
    }
    return report


MEASURE = {
    "run-all": measure_run_all,
    "serve-read": measure_serve_read,
    "serve-sweep": measure_serve_sweep,
}
