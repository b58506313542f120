"""Load harness for the profiling server: throughput, p50/p99, floors.

Drives a live in-process server (real sockets, the stdlib client below)
through three request patterns:

* **hot** — concurrent keep-alive clients hammering one already-cached
  ``/profile`` point: pure hot-cache reads, the "heavy traffic" path.
  Reports sustained requests/sec plus client-observed p50/p99 latency;
  the floor is :data:`MIN_HOT_RPS`.
* **cold vs hot** — wall time of a first-touch request (cold engine,
  cold caches, cold GEMM memo) against the p50 of an *uncontended*
  single-client hot run (same one-request-at-a-time conditions); the
  hot cache must be at least :data:`MIN_COLD_HOT_SPEEDUP` faster.
* **coalescing storm** — :data:`STORM_CLIENTS` concurrent *identical*
  requests against cold caches versus executing the same computation
  serially once per request (fresh memo/disk/device each time — what a
  coalescing-free server would pay).  The storm must finish at least
  :data:`MIN_COALESCE_SPEEDUP` times faster, and must have dispatched
  exactly one engine computation.

Writes ``BENCH_serve.json`` at the repo root and exits non-zero if any
floor is missed, so CI catches the serving layer regressing.

Run: ``PYTHONPATH=src python benchmarks/bench_serve.py``
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.hw.device import mi100
from repro.obs import metrics
from repro.runner.cache import configure_cache, reset_cache
from repro.serve import App, HotCache, ProfilingService, create_server, \
    server_address
from repro.trace.bert_trace import clear_iteration_traces

#: Floors enforced by CI.
MIN_HOT_RPS = 1000.0
MIN_COALESCE_SPEEDUP = 5.0
MIN_COLD_HOT_SPEEDUP = 3.0

#: Hot pattern: small-body point, concurrent keep-alive clients.
HOT_POINT = "tiny.ph1-b2-fp32"
HOT_CLIENTS = 8
HOT_REQUESTS_PER_CLIENT = 500

#: Storm pattern: a BERT Large point (a real compute, not a toy).
STORM_POINT = "fig3.ph1-b32-fp32"
STORM_CLIENTS = 100
SERIAL_SAMPLES = 5

COLD_SAMPLES = 3

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

_COMPUTATIONS = metrics.counter("serve.computations")


async def _request(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: b\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _read_response(reader) -> tuple[int, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _hot_client(host: str, port: int, path: str, n: int,
                      latencies: list) -> None:
    """One keep-alive connection issuing ``n`` sequential requests."""
    reader, writer = await asyncio.open_connection(host, port)
    request = f"GET {path} HTTP/1.1\r\nHost: b\r\n\r\n".encode()
    try:
        for _ in range(n):
            start = time.perf_counter()
            writer.write(request)
            await writer.drain()
            status, _ = await _read_response(reader)
            latencies.append(time.perf_counter() - start)
            assert status == 200, f"hot read returned {status}"
    finally:
        writer.close()


def _quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def _fresh_caches(root: Path, tag: str) -> None:
    """Point the engine at an empty disk cache and clear the memo."""
    clear_iteration_traces()
    configure_cache(root / f"cache-{tag}")


async def _bench(root: Path) -> dict:
    app = App(service=ProfilingService(device=mi100()), workers=4,
              queue_limit=128, hot_cache=HotCache())
    server = await create_server(app)
    host, port = server_address(server)
    try:
        # ---------------------------------------------------- cold first hit
        cold_samples = []
        for index in range(COLD_SAMPLES):
            _fresh_caches(root, f"cold{index}")
            app.hot.clear()
            app.service.device = mi100()  # cold GEMM memo
            start = time.perf_counter()
            status, _ = await _request(host, port, f"/profile/{HOT_POINT}")
            cold_samples.append(time.perf_counter() - start)
            assert status == 200
        cold_s = statistics.median(cold_samples)

        # ------------------------------------------------------ hot hammering
        path = f"/profile/{HOT_POINT}"
        await _request(host, port, path)  # ensure warm
        latencies: list = []
        start = time.perf_counter()
        await asyncio.gather(*(
            _hot_client(host, port, path, HOT_REQUESTS_PER_CLIENT, latencies)
            for _ in range(HOT_CLIENTS)))
        hot_wall_s = time.perf_counter() - start
        total = HOT_CLIENTS * HOT_REQUESTS_PER_CLIENT
        hot_p50 = _quantile(latencies, 0.50)

        # Uncontended hot p50 for the cold comparison: one client, so
        # neither side's number includes queuing behind other clients.
        solo_latencies: list = []
        await _hot_client(host, port, path, 200, solo_latencies)
        solo_p50 = _quantile(solo_latencies, 0.50)

        # ------------------------------------------------- coalescing storm
        _fresh_caches(root, "storm")
        app.hot.clear()
        app.service.device = mi100()
        computed_before = _COMPUTATIONS.value(route="profile")
        storm_path = f"/profile/{STORM_POINT}"
        start = time.perf_counter()
        responses = await asyncio.gather(*(
            _request(host, port, storm_path) for _ in range(STORM_CLIENTS)))
        storm_s = time.perf_counter() - start
        assert all(status == 200 for status, _ in responses)
        assert len({body for _, body in responses}) == 1
        storm_computations = \
            _COMPUTATIONS.value(route="profile") - computed_before

        # Serial baseline: the same computation once per client, each
        # paying the full cold path a coalescing-free server would.
        serial_samples = []
        service = app.service
        for index in range(SERIAL_SAMPLES):
            _fresh_caches(root, f"serial{index}")
            service.device = mi100()
            start = time.perf_counter()
            from repro.serve.service import render_json
            render_json(service.profile_payload(STORM_POINT))
            serial_samples.append(time.perf_counter() - start)
        serial_per_request_s = statistics.mean(serial_samples)
        serial_s = serial_per_request_s * STORM_CLIENTS

        latency_stats = metrics.histogram("serve.request_seconds") \
            .stats(route="profile")

        # Server-side per-route view: the /stats endpoint aggregates the
        # same histogram by route, so the report can break latency down
        # without the client tracking which path hit which route.
        status, stats_body = await _request(host, port, "/stats")
        assert status == 200
        server_stats = json.loads(stats_body)
        return {
            "device": "mi100",
            "workers": 4,
            "hot": {
                "point": HOT_POINT,
                "clients": HOT_CLIENTS,
                "requests": total,
                "wall_s": hot_wall_s,
                "rps": total / hot_wall_s,
                "p50_ms": hot_p50 * 1e3,
                "p90_ms": _quantile(latencies, 0.90) * 1e3,
                "p99_ms": _quantile(latencies, 0.99) * 1e3,
            },
            "cold_vs_hot": {
                "cold_ms": cold_s * 1e3,
                "hot_p50_ms": solo_p50 * 1e3,
                "speedup": cold_s / solo_p50,
            },
            "coalesce": {
                "point": STORM_POINT,
                "clients": STORM_CLIENTS,
                "storm_s": storm_s,
                "serial_per_request_ms": serial_per_request_s * 1e3,
                "serial_s": serial_s,
                "speedup": serial_s / storm_s,
                "computations": storm_computations,
            },
            "server_histogram_profile_route": latency_stats,
            "per_route": {
                "requests": server_stats["requests_by_route"],
                "latency": server_stats["route_latency"],
            },
            "flight": server_stats["flight"],
            "floors": {
                "min_hot_rps": MIN_HOT_RPS,
                "min_coalesce_speedup": MIN_COALESCE_SPEEDUP,
                "min_cold_hot_speedup": MIN_COLD_HOT_SPEEDUP,
            },
        }
    finally:
        server.close()
        await server.wait_closed()
        app.close()
        reset_cache()
        clear_iteration_traces()


def run() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        return asyncio.run(_bench(Path(root)))


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    hot, cold, storm = (payload["hot"], payload["cold_vs_hot"],
                        payload["coalesce"])
    print(f"hot: {hot['requests']} reqs x {hot['clients']} clients -> "
          f"{hot['rps']:.0f} req/s "
          f"(p50 {hot['p50_ms']:.2f}ms p99 {hot['p99_ms']:.2f}ms)")
    print(f"cold {cold['cold_ms']:.1f}ms vs hot p50 "
          f"{cold['hot_p50_ms']:.2f}ms -> {cold['speedup']:.1f}x")
    print(f"storm: {storm['clients']} identical requests in "
          f"{storm['storm_s'] * 1e3:.1f}ms vs serial "
          f"{storm['serial_s'] * 1e3:.0f}ms -> {storm['speedup']:.1f}x "
          f"({storm['computations']} computation)")
    for route in sorted(payload["per_route"]["latency"]):
        stats = payload["per_route"]["latency"][route]
        count = payload["per_route"]["requests"][route]["total"]
        print(f"route {route}: {count} reqs, "
              f"p50 {stats['p50_ms']:.2f}ms p99 {stats['p99_ms']:.2f}ms")

    failed = False
    if hot["rps"] < MIN_HOT_RPS:
        print(f"FAIL: hot throughput {hot['rps']:.0f} < {MIN_HOT_RPS} req/s")
        failed = True
    if cold["speedup"] < MIN_COLD_HOT_SPEEDUP:
        print(f"FAIL: cold/hot speedup {cold['speedup']:.1f}x "
              f"< {MIN_COLD_HOT_SPEEDUP}x")
        failed = True
    if storm["speedup"] < MIN_COALESCE_SPEEDUP:
        print(f"FAIL: coalesce speedup {storm['speedup']:.1f}x "
              f"< {MIN_COALESCE_SPEEDUP}x")
        failed = True
    if storm["computations"] != 1:
        print(f"FAIL: storm dispatched {storm['computations']} "
              "computations, expected exactly 1")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
