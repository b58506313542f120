"""Traced runs: the per-layer metrics, each mapped to what it should move.

A traced run replays the workload's seeded inputs and reports where the
time went, layer by layer.  It combines three sources:

* the program's own exports -- the run manifests of a cold and a warm
  ``repro run all``, and ``/stats`` of a live ``repro serve`` after the
  workload's HTTP phase (route latencies, hot cache, coalescing);
* an in-process replay with spans recorded around each layer's public
  functions (:mod:`layers`), giving self times, call counts and hit
  ratios;
* the same replay without spans, so ``obs.tracing_overhead_pct`` is the
  traced minus the untraced wall time of identical inputs.

Every run prints every metric of :data:`PER_LAYER`; a layer the workload
does not touch reads 0.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys

import loadgen
import workloads
from harness import (ROOT, BenchmarkError, Scratch, Server, child_env,
                     quantile)

#: Registered experiment ids, in registry order.
EXPERIMENT_IDS = (
    "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "sec4", "fig11",
    "fig12", "nmc", "table1", "sec7", "zero", "windowed", "energy",
    "pipeline", "fused-attention", "transfer", "optimized", "robustness",
    "scaling", "packing")

_SERVE_READ = "warm_ms, read_p99_ms (serve-read)"
_SWEEP_READS = "read_under_sweep_p99_ms (serve-sweep)"
_SWEEP = "cold_ms (serve-sweep)"
_SWEEP_RATE = "sweep_points_per_s (serve-sweep), cold_ms (run-all)"
_COLD_ALL = "cold_ms (run-all)"
_WARM_ALL = "warm_ms (run-all), cold_ms (serve-sweep)"

#: Per-layer metric -> (unit, which direction is better, the end-to-end
#: metric it should move and on which workload).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "serve.http.gap_p50_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.profile_p50_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.profile_p99_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.perfetto_p50_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.perfetto_p99_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.grid_p50_ms": ("ms", "lower", _SWEEP),
    "serve.app.hot_self_p50_ms": ("ms", "lower", _SERVE_READ),
    "serve.app.self_ms": ("ms", "lower", _SERVE_READ),
    "serve.hot_cache.hit_ratio": ("ratio", "higher",
                                  f"{_SWEEP_READS}; ~1 on serve-read"),
    "serve.hot_cache.evictions": ("count", "lower", _SWEEP_READS),
    "serve.hot_cache.bytes": ("bytes", "lower", _SWEEP_READS),
    "serve.hot_cache.self_ms": ("ms", "lower", _SERVE_READ),
    "serve.coalesce.computations_per_request": ("ratio", "lower", _SWEEP),
    "serve.coalesced": ("count", "higher", f"{_SWEEP}, failures"),
    "serve.shed": ("count", "lower", f"{_SWEEP}, failures"),
    "serve.service.payload_ms": ("ms", "lower", _SWEEP),
    "serve.service.render_ms": ("ms", "lower", _SWEEP),
    "serve.service.render_kb": ("KiB", "lower", _SWEEP),
    "runner.cache.key_ms": ("ms", "lower", _SWEEP_READS),
    "runner.cache.grid_key_ms": ("ms", "lower", _SWEEP_READS),
    "runner.cache.hit_ratio": ("ratio", "higher", _WARM_ALL),
    "runner.cache.get_ms": ("ms", "lower", _WARM_ALL),
    "runner.cache.put_ms": ("ms", "lower", _WARM_ALL),
    "runner.cache.writes": ("count", "lower", _WARM_ALL),
    "grid.build_ms": ("ms", "lower", _SWEEP_RATE),
    "grid.profile_ms": ("ms", "lower", _SWEEP_RATE),
    "grid.points": ("count", "higher", _SWEEP_RATE),
    "hw.timing.kernel_times_ms": ("ms", "lower", _SWEEP_RATE),
    "hw.timing.gemm_memo_hit_ratio": ("ratio", "higher", _SWEEP_RATE),
    "trace.build_ms": ("ms", "lower", _COLD_ALL),
    "trace.build_count": ("count", "lower", _COLD_ALL),
    "trace.passes_ms": ("ms", "lower", _COLD_ALL),
    "trace.list_views": ("count", "lower", _COLD_ALL),
    "trace.list_views_ms": ("ms", "lower", _COLD_ALL),
    "profiler.profile_ms": ("ms", "lower", _COLD_ALL),
    "profiler.breakdown_ms": ("ms", "lower", _COLD_ALL),
    "experiments.self_ms": ("ms", "lower", _COLD_ALL),
    "data.ms": ("ms", "lower", _COLD_ALL),
    "distributed.ms": ("ms", "lower", _COLD_ALL),
    **{f"experiments.{eid}_s": ("s", "lower", _COLD_ALL)
       for eid in EXPERIMENT_IDS},
    "runner.executor.overhead_s": ("s", "lower",
                                   "warm_ms, setup_s (run-all)"),
    "obs.unattributed_pct": ("%", "lower",
                             "none: replay time outside every span"),
    "obs.tracing_overhead_pct": ("%", "lower",
                                 "none: traced minus untraced replay time"),
    "loadgen.late_p99_ms": ("ms", "lower",
                            "none: generator lateness behind read latency"),
}


#: Untraced/traced replay pairs per traced run, alternated; each metric
#: is the median over the pairs, so one noisy replay cannot set it.
REPLAY_PAIRS = 3


def _replay(scratch: Scratch, workload: str, trace: int,
            extra: list[str]) -> dict:
    """One replay subprocess on a fresh cache; its JSON summary."""
    state = scratch.fresh(f"replay-{trace}")
    out = state / "replay.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), workload,
         "--trace", str(trace), "--out", str(out), *extra],
        cwd=state, env=child_env(state), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=170)
    if result.returncode != 0:
        raise BenchmarkError(f"replay {workload} --trace {trace} failed:\n"
                             f"{result.stderr.decode()[-2000:]}")
    return json.loads(out.read_text())


def _replay_metrics(scratch: Scratch, workload: str, extra: list[str],
                    report: workloads.Report) -> dict[str, float]:
    """Alternate untraced and traced replays; per-metric medians."""
    untraced, traced = [], []
    for _ in range(REPLAY_PAIRS):
        untraced.append(_replay(scratch, workload, 0, extra))
        traced.append(_replay(scratch, workload, 1, extra))
    failed = sum(replay["failed"] for replay in untraced + traced)
    report.failed += failed
    report.check("every replayed operation succeeded", failed == 0,
                 f"{failed} failed")
    untraced_s = statistics.median(sum(r["phases"].values())
                                   for r in untraced)
    traced_s = statistics.median(sum(r["phases"].values()) for r in traced)
    per_replay = [_span_metrics(replay) for replay in traced]
    metrics = {name: statistics.median(m[name] for m in per_replay)
               for name in per_replay[0]}
    metrics["obs.tracing_overhead_pct"] = \
        100.0 * (traced_s - untraced_s) / untraced_s
    report.named.update({"replay_untraced_s": (untraced_s, "s"),
                         "replay_traced_s": (traced_s, "s"),
                         "replay_pairs": (REPLAY_PAIRS, "count")})
    return metrics


def _span_metrics(traced: dict) -> dict[str, float]:
    """Self times, counts and ratios from one traced replay."""
    spans = traced["spans"]

    def self_ms(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0)
                   for name in names) * 1e3

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    gets = spans.get("runner.cache.get", {}).get("tags", {})
    lookups = gets.get("hit", 0) + gets.get("miss", 0)
    traced_wall = sum(traced["phases"].values())
    attributed = sum(entry["self_s"] for entry in spans.values())
    hot_self = traced["hot_handle_self_ms"]
    return {
        "serve.app.hot_self_p50_ms":
            quantile(hot_self, 0.5) if hot_self else 0.0,
        "serve.app.self_ms": self_ms("serve.app.handle"),
        "serve.hot_cache.self_ms": self_ms("serve.hot_cache.get",
                                           "serve.hot_cache.put"),
        "serve.service.payload_ms": self_ms("serve.service.payload"),
        "serve.service.render_ms": self_ms("serve.service.render"),
        "serve.service.render_kb":
            spans.get("serve.service.render", {}).get("bytes", 0) / 1024,
        "runner.cache.key_ms": self_ms("runner.cache.key"),
        "runner.cache.grid_key_ms": self_ms("runner.cache.grid_key"),
        "runner.cache.hit_ratio":
            gets.get("hit", 0) / lookups if lookups else 0.0,
        "runner.cache.get_ms": self_ms("runner.cache.get"),
        "runner.cache.put_ms": self_ms("runner.cache.put"),
        "runner.cache.writes": calls("runner.cache.put"),
        "grid.build_ms": self_ms("grid.build"),
        "grid.profile_ms": self_ms("grid.profile", "grid.summaries"),
        "grid.points": traced["counters"].get("grid_engine.points", 0),
        "hw.timing.kernel_times_ms": self_ms("hw.timing"),
        "hw.timing.gemm_memo_hit_ratio":
            traced["hit_rates"].get("gemm_memo.lookups.hit_rate", 0.0),
        "trace.build_ms": self_ms("trace.build"),
        "trace.build_count": calls("trace.build"),
        "trace.passes_ms": self_ms("trace.passes"),
        "trace.list_views": calls("trace.list_view"),
        "trace.list_views_ms": self_ms("trace.list_view"),
        "profiler.profile_ms": self_ms("profiler.profile"),
        "profiler.breakdown_ms": self_ms("profiler.breakdown"),
        "experiments.self_ms": self_ms("experiments.run",
                                       "experiments.run_point"),
        "data.ms": self_ms("data"),
        "distributed.ms": self_ms("distributed"),
        "obs.unattributed_pct":
            100.0 * (traced_wall - attributed) / traced_wall,
    }


def _trace_run_all(seconds: float, seed: int,
                   report: workloads.Report) -> dict[str, float]:
    del seconds, seed  # the registry is the input
    scratch = Scratch()
    try:
        cold_s, warm_s, _, manifests = workloads.run_all_once(scratch,
                                                              report)
        report.named = {"run_all_cold_s": (cold_s, "s"),
                        "run_all_warm_s": (warm_s, "s")}
        report.attempted += 2 * REPLAY_PAIRS * 2 * len(EXPERIMENT_IDS)
        metrics = _replay_metrics(scratch, "run-all", [], report)
    finally:
        scratch.close()
    durations = {row["experiment_id"]: row["duration_s"]
                 for row in manifests[0]["experiments"]}
    if set(durations) != set(EXPERIMENT_IDS):
        raise BenchmarkError("the registry changed: "
                             f"{sorted(set(durations) ^ set(EXPERIMENT_IDS))}")
    warm_total = sum(row["duration_s"]
                     for row in manifests[1]["experiments"])
    metrics.update({f"experiments.{eid}_s": durations[eid]
                    for eid in EXPERIMENT_IDS})
    metrics["runner.executor.overhead_s"] = warm_s - warm_total
    return metrics


def _route_stats(server_stats: dict) -> dict[str, float]:
    latency = server_stats["route_latency"]

    def route(name: str, q: str) -> float:
        return latency.get(name, {}).get(f"{q}_ms", 0.0)

    hot = server_stats["hot_cache"]
    lookups = hot["hits"] + hot["misses"]
    counters = {name: sum(entry["series"].values())
                for name, entry in server_stats["metrics"].items()
                if entry["kind"] == "counter"}
    cacheable = sum(server_stats["requests_by_route"].get(r, {})
                    .get("total", 0) for r in ("profile", "perfetto", "grid"))
    return {
        "serve.app.profile_p50_ms": route("profile", "p50"),
        "serve.app.profile_p99_ms": route("profile", "p99"),
        "serve.app.perfetto_p50_ms": route("perfetto", "p50"),
        "serve.app.perfetto_p99_ms": route("perfetto", "p99"),
        "serve.app.grid_p50_ms": route("grid", "p50"),
        "serve.hot_cache.hit_ratio": hot["hits"] / lookups if lookups else 0.0,
        "serve.hot_cache.evictions": hot["evictions"],
        "serve.hot_cache.bytes": hot["bytes"],
        "serve.coalesce.computations_per_request":
            counters.get("serve.computations", 0) / cacheable
            if cacheable else 0.0,
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.shed": counters.get("serve.shed", 0),
    }


def _trace_serve(workload: str, seconds: float, seed: int,
                 report: workloads.Report) -> dict[str, float]:
    """HTTP phase against a live server, then both in-process replays."""
    sweep = workload == "serve-sweep"
    routes = ("profile",) if sweep else ("profile", "perfetto")
    server_args = (("--hot-cache-mb", str(workloads.SWEEP_HOT_CACHE_MB))
                   if sweep else ())
    hot_cache_mb = workloads.SWEEP_HOT_CACHE_MB if sweep else 64
    rng = random.Random(seed)
    scratch = Scratch()
    try:
        server = Server(scratch.fresh("serve"), server_args)
        try:
            points = workloads.server_points(server.port)
            cold_paths = [f"/{route}/{point}" for point in points
                          for route in routes]
            _, reference, failures = workloads.cold_pass(server.port,
                                                         cold_paths)
            report.attempted += len(cold_paths)
            report.failed += failures
            if sweep:
                specs = loadgen.grid_specs(random.Random(seed + 1), 4000)
                sweeps, reads = workloads.sweep_phase(
                    server.port, rng, points, specs, seconds / 4)
                workloads.check_sweeps(report, specs, sweeps)
                sent = [("POST", "/grid", loadgen.spec_body(spec).decode(),
                         outcome.sent)
                        for spec, outcome in zip(specs, sweeps)]
            else:
                reads = workloads.read_phase(
                    server.port, rng, points, workloads.REFERENCE_RPS,
                    seconds / 2)
                sent = []
            workloads.verify_reads(report, reference, reads.outcomes,
                                   "traced reads")
            server_stats = workloads.server_stats(server.port)
        finally:
            server.stop()
        sent += [("GET", o.path, "", o.sent) for o in reads.outcomes]
        requests = [("GET", path, "") for path in cold_paths] + [
            (method, path, body) for method, path, body, _ in
            sorted(sent, key=lambda request: request[3])]
        requests_file = scratch.path / "requests.json"
        requests_file.write_text(json.dumps(requests))
        extra = ["--requests", str(requests_file),
                 "--hot-cache-mb", str(hot_cache_mb)]
        report.attempted += 2 * REPLAY_PAIRS * len(requests)
        metrics = _replay_metrics(scratch, "serve", extra, report)
    finally:
        scratch.close()
    metrics.update(_route_stats(server_stats))
    client_profile_ms = [o.service_ms for o in reads.outcomes
                         if o.path.startswith("/profile/")]
    metrics["serve.http.gap_p50_ms"] = (
        quantile(client_profile_ms, 0.5)
        - metrics["serve.app.profile_p50_ms"])
    metrics["loadgen.late_p99_ms"] = quantile(reads.late_ms, 0.99)
    report.named.update({
        "client_profile_p50_ms": (quantile(client_profile_ms, 0.5), "ms"),
        "server_profile_p50_ms": (metrics["serve.app.profile_p50_ms"], "ms"),
        "replay_requests": (len(requests), "count"),
    })
    return metrics


def measure(workload: str, seconds: float, seed: int) -> workloads.Report:
    """One traced run: every :data:`PER_LAYER` metric, 0 where unused."""
    report = workloads.Report(workload)
    if workload == "run-all":
        measured = _trace_run_all(seconds, seed, report)
    else:
        measured = _trace_serve(workload, seconds, seed, report)
    report.per_layer = {name: (float(measured.get(name, 0.0)), unit)
                        for name, (unit, _, _) in PER_LAYER.items()}
    report.moves = {name: moves for name, (_, _, moves) in PER_LAYER.items()}
    return report
