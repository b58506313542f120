"""Profiling server: endpoint contracts, coalescing, shedding, hot cache.

Three layers under test:

* **HTTP contracts** — a real asyncio server on an ephemeral port,
  driven by a raw stdlib client (status codes, JSON schemas, 404s,
  keep-alive, malformed-request handling);
* **App semantics** — the transport-agnostic :class:`repro.serve.App`
  driven directly, where scheduling is deterministic: 100 concurrent
  identical requests perform exactly one engine computation, and a
  saturated queue sheds leaders with 503 + ``Retry-After``;
* **Golden equivalence** — served bodies are byte-identical to the
  corresponding ``repro export --format perfetto`` file and to payloads
  built from direct ``run_point``/``summarize`` calls.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments.points import POINT_REGISTRY
from repro.obs import metrics
from repro.serve import (App, HotCache, ProfilingService, create_server,
                         render_json, server_address)
from repro.serve import app as serve_app
from repro.serve.app import StaleStore

TINY = "tiny.ph1-b2-fp32"

_REQUESTS = metrics.counter("serve.requests")
_COMPUTATIONS = metrics.counter("serve.computations")
_COALESCED = metrics.counter("serve.coalesced")
_SHED = metrics.counter("serve.shed")


@pytest.fixture
def app():
    instance = App(workers=2, queue_limit=8, hot_cache=HotCache())
    yield instance
    instance.close()


def run(coro):
    return asyncio.run(coro)


async def http_request(host, port, method, path, body=b""):
    """Raw stdlib HTTP client: (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        if body:
            head += f"Content-Length: {len(body)}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


async def read_response(reader):
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return status, headers, payload


async def with_server(app, scenario):
    """Run ``scenario(host, port)`` against a live server."""
    server = await create_server(app)
    try:
        return await scenario(*server_address(server))
    finally:
        server.close()
        await server.wait_closed()


class TestEndpointContracts:
    def test_healthz(self, app):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/healthz")

        status, headers, body = run(with_server(app, scenario))
        assert status == 200
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_points_lists_the_registry(self, app):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/points")

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == len(POINT_REGISTRY)
        ids = {point["id"] for point in payload["points"]}
        assert ids == set(POINT_REGISTRY)
        for point in payload["points"]:
            assert set(point) == {"id", "model", "label", "batch_size",
                                  "seq_len", "precision", "tokens"}

    def test_registry_covers_fig8_and_fig9(self):
        assert "fig8.ph1-b4-fp32" in POINT_REGISTRY
        assert "fig8.ph2-b16-fp32" in POINT_REGISTRY
        assert "fig9.c1.ph1-b8-fp32" in POINT_REGISTRY
        assert "fig9.c3.ph1-b8-fp32" in POINT_REGISTRY
        model, training = POINT_REGISTRY["fig9.c3.ph1-b8-fp32"]
        assert model.name == "C3"
        assert training.batch_size == 8

    def test_profile_schema(self, app):
        async def scenario(host, port):
            return await http_request(host, port, "GET", f"/profile/{TINY}")

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        payload = json.loads(body)
        assert payload["point"] == TINY
        assert payload["model"]["name"] == "bert-tiny"
        assert payload["training"]["batch_size"] == 2
        assert payload["kernels"] > 0
        summary = payload["summary"]
        assert 0 < summary["total_time_s"]
        assert set(summary) >= {"transformer", "optimizer", "gemm"}
        assert payload["components"] and payload["regions"]
        for entry in payload["components"]:
            assert set(entry) == {"label", "time_s", "fraction"}

    def test_unknown_point_is_404_with_vocabulary(self, app):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/profile/nope")

        status, _, body = run(with_server(app, scenario))
        assert status == 404
        payload = json.loads(body)
        assert "nope" in payload["error"]
        assert payload["valid"] == sorted(POINT_REGISTRY)

    def test_unknown_points_never_enter_the_key_memo(self, app):
        async def scenario():
            statuses = set()
            for index in range(1000):
                response = await app.handle("GET", f"/profile/nope-{index}")
                statuses.add(response.status)
            return statuses

        for point in POINT_REGISTRY:
            for route in ("profile", "perfetto"):
                assert (app.service.point_key(route, point)
                        == app.service.point_key(route, point))
        assert run(scenario()) == {404}
        assert len(app.service._point_keys) <= 2 * len(POINT_REGISTRY)

    def test_unknown_route_is_404(self, app):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/nope")

        status, _, body = run(with_server(app, scenario))
        assert status == 404
        assert "/profile/<point>" in json.loads(body)["routes"]

    def test_wrong_method_is_405(self, app):
        async def scenario(host, port):
            return (await http_request(host, port, "POST", "/points"),
                    await http_request(host, port, "GET", "/grid"))

        (points_status, _, _), (grid_status, _, _) = \
            run(with_server(app, scenario))
        assert points_status == 405
        assert grid_status == 405

    def test_perfetto_is_a_valid_chrome_trace(self, app):
        from repro.obs.timeline_export import validate_chrome_trace

        async def scenario(host, port):
            return await http_request(host, port, "GET", f"/perfetto/{TINY}")

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        payload = json.loads(body)
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["kernels"] > 0

    def test_grid_spec_round_trip(self, app):
        spec = {"model": "bert-tiny", "batch_sizes": [2, 4],
                "seq_lens": [32], "precisions": ["fp32"]}

        async def scenario(host, port):
            return await http_request(host, port, "POST", "/grid",
                                      json.dumps(spec).encode())

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        payload = json.loads(body)
        assert payload["model"] == "bert-tiny"
        assert payload["points"] == 2
        assert payload["failed"] == 0
        labels = [row["label"] for row in payload["rows"]]
        assert labels == ["Ph1-B2-FP32", "Ph1-B4-FP32"]
        for row in payload["rows"]:
            assert row["total_time_s"] > 0

    def test_grid_rejects_junk(self, app):
        async def scenario(host, port):
            return (
                await http_request(host, port, "POST", "/grid", b"not json"),
                await http_request(host, port, "POST", "/grid",
                                   json.dumps({"model": "gpt-5"}).encode()),
                await http_request(host, port, "POST", "/grid",
                                   json.dumps({"batch_sizes": []}).encode()),
                await http_request(
                    host, port, "POST", "/grid",
                    json.dumps({"bogus_axis": [1]}).encode()),
            )

        responses = run(with_server(app, scenario))
        assert [status for status, _, _ in responses] == [400, 400, 400, 400]

    @pytest.mark.parametrize("model", [["bert-tiny"], {"name": "c1"}])
    def test_grid_rejects_unhashable_model_with_one_line_400(self, app,
                                                             model):
        response = run(app.handle("POST", "/grid",
                                  json.dumps({"model": model}).encode()))
        assert response.status == 400
        message = json.loads(response.body)["error"]
        assert message.startswith("unknown model") and "\n" not in message

    def test_fresh_grid_hashes_its_address_once(self, app, monkeypatch):
        from repro.runner.cache import ResultCache

        calls = []
        real = ResultCache.grid_key

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "grid_key", counting)
        spec = {"model": "bert-tiny", "batch_sizes": [3, 7],
                "seq_lens": [48], "precisions": ["mixed"]}
        response = run(app.handle("POST", "/grid",
                                  json.dumps(spec).encode()))
        assert response.status == 200
        assert json.loads(response.body)["failed"] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("axes", [
        {"batch_sizes": "32"},   # a string is not iterated digit by digit
        {"seq_lens": "128"},
        {"precisions": "fp32"},
        {"batch_sizes": 32},
        {"batch_sizes": [1.5]},  # not truncated to 1
        {"batch_sizes": [True]},  # not read as 1
        {"seq_lens": [None]},
        {"batch_sizes": ["1_0"]},
    ])
    def test_grid_rejects_non_list_axes_and_non_integer_values(
            self, app, axes):
        spec = {"model": "bert-tiny", **axes}

        async def scenario(host, port):
            return await http_request(host, port, "POST", "/grid",
                                      json.dumps(spec).encode())

        status, _, body = run(with_server(app, scenario))
        assert status == 400
        message = json.loads(body)["error"]
        assert message and "\n" not in message

    def test_keep_alive_serves_many_requests_per_connection(self, app):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                statuses = []
                for _ in range(3):
                    writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status, _, _ = await read_response(reader)
                    statuses.append(status)
                return statuses
            finally:
                writer.close()

        assert run(with_server(app, scenario)) == [200, 200, 200]

    def test_malformed_request_gets_400(self, app):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"EXPLODE\r\n\r\n")
                await writer.drain()
                status, _, _ = await read_response(reader)
                return status
            finally:
                writer.close()

        assert run(with_server(app, scenario)) == 400

    def test_stats_snapshot_sanity(self, app):
        async def scenario(host, port):
            await http_request(host, port, "GET", f"/profile/{TINY}")
            await http_request(host, port, "GET", f"/profile/{TINY}")
            return await http_request(host, port, "GET", "/stats")

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        payload = json.loads(body)
        assert payload["workers"] == 2
        assert payload["queue_limit"] == 8
        hot = payload["hot_cache"]
        assert hot["entries"] >= 1
        assert hot["hits"] >= 1  # the second /profile was a hot read
        assert 0 < hot["bytes"] <= hot["capacity_bytes"]
        snapshot = payload["metrics"]
        assert snapshot["serve.requests"]["kind"] == "counter"
        latency = snapshot["serve.request_seconds"]
        assert latency["kind"] == "histogram"
        profile_series = latency["series"]["route=profile"]
        assert profile_series["count"] >= 2
        assert "p50" in profile_series and "p99" in profile_series
        assert "serve.hot_cache.requests.hit_rate" in payload["hit_rates"]


class TestCoalescing:
    def test_100_concurrent_identical_requests_one_computation(self, app):
        """The acceptance criterion, counter-asserted deterministically.

        Driving the App directly makes scheduling exact: all 100
        handlers register with the coalescer before the leader's worker
        job can run, so precisely one computation is dispatched and the
        other 99 attach to it.
        """
        point = "fig3.ph1-b32-fp32"
        computed_before = _COMPUTATIONS.value(route="profile")
        coalesced_before = _COALESCED.value(route="profile")

        async def storm():
            return await asyncio.gather(*(
                app.handle("GET", f"/profile/{point}") for _ in range(100)))

        responses = run(storm())
        assert [r.status for r in responses] == [200] * 100
        # Byte-identical bodies: everyone shared one rendering.
        assert len({r.body for r in responses}) == 1
        assert _COMPUTATIONS.value(route="profile") - computed_before == 1
        assert _COALESCED.value(route="profile") - coalesced_before == 99

    def test_sequential_repeat_hits_hot_cache_not_coalescer(self, app):
        coalesced_before = _COALESCED.value(route="profile")
        hits_before = app.hot.stats.hits

        async def twice():
            first = await app.handle("GET", f"/profile/{TINY}")
            second = await app.handle("GET", f"/profile/{TINY}")
            return first, second

        first, second = run(twice())
        assert first.body == second.body
        assert app.hot.stats.hits - hits_before == 1
        assert _COALESCED.value(route="profile") == coalesced_before

    def test_coalesced_error_propagates_to_all_without_caching(self, app,
                                                               monkeypatch):
        def explode(point):
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(app.service, "profile_payload", explode)

        async def storm():
            return await asyncio.gather(*(
                app.handle("GET", f"/profile/{TINY}") for _ in range(5)))

        responses = run(storm())
        assert [r.status for r in responses] == [500] * 5
        assert all(b"engine on fire" in r.body for r in responses)
        assert len(app.hot) == 0  # errors are never cached


class TestLoadShedding:
    def test_saturated_queue_sheds_with_retry_after(self):
        app = App(workers=1, queue_limit=1, hot_cache=HotCache())
        shed_before = _SHED.value(route="profile")
        try:
            async def scenario():
                # Two *different* points: the second must become a
                # leader, find the queue full, and be refused.  Both
                # are issued before the first computation can finish
                # (the leader's inflight slot is taken synchronously).
                return await asyncio.gather(
                    app.handle("GET", f"/profile/{TINY}"),
                    app.handle("GET", "/profile/fig3.ph1-b4-fp32"))

            first, second = run(scenario())
            assert first.status == 200
            assert second.status == 503
            assert second.headers["Retry-After"] == "1"
            payload = json.loads(second.body)
            assert payload["retry_after_s"] == 1
            assert _SHED.value(route="profile") - shed_before == 1
        finally:
            app.close()

    def test_followers_are_never_shed(self):
        app = App(workers=1, queue_limit=1, hot_cache=HotCache())
        try:
            async def scenario():
                # 20 identical requests against a full-width queue of 1:
                # one leader takes the slot, 19 followers coalesce, no
                # request is refused.
                return await asyncio.gather(*(
                    app.handle("GET", f"/profile/{TINY}")
                    for _ in range(20)))

            responses = run(scenario())
            assert [r.status for r in responses] == [200] * 20
        finally:
            app.close()


class TestHotCache:
    def test_hit_miss_and_lru_order(self):
        cache = HotCache(capacity_bytes=1024)
        assert cache.get("a") is None
        assert cache.put("a", b"x" * 100)
        assert cache.get("a") == b"x" * 100
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_is_lru_and_bytes_bounded(self):
        cache = HotCache(capacity_bytes=250)
        cache.put("a", b"a" * 100)
        cache.put("b", b"b" * 100)
        cache.get("a")  # refresh a: b is now least recently used
        cache.put("c", b"c" * 100)  # 300 bytes > 250: evict b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1
        assert cache.size_bytes <= 250

    def test_oversize_value_is_not_admitted(self):
        cache = HotCache(capacity_bytes=10)
        assert not cache.put("big", b"y" * 11)
        assert len(cache) == 0

    def test_replacing_a_key_updates_byte_accounting(self):
        cache = HotCache(capacity_bytes=300)
        cache.put("a", b"a" * 200)
        cache.put("a", b"a" * 50)
        assert cache.size_bytes == 50
        cache.put("b", b"b" * 240)  # fits: 290 <= 300, no eviction
        assert "a" in cache and "b" in cache
        assert cache.stats.evictions == 0

    def test_lru_eviction_through_the_app(self):
        """End-to-end: a tiny budget forces the older entry out."""
        app = App(workers=1, hot_cache=HotCache(capacity_bytes=3000))
        try:
            async def scenario():
                first = await app.handle("GET", f"/profile/{TINY}")
                assert 1000 < len(first.body) < 3000  # budget fits one
                key_tiny = app.service.point_key("profile", TINY)
                assert key_tiny in app.hot
                # The perfetto body (~75KB) is oversize for this budget:
                # not admitted, the profile entry survives.
                await app.handle("GET", f"/perfetto/{TINY}")
                assert key_tiny in app.hot
                # A second profile entry blows the budget: LRU evicts
                # the tiny point, the newer entry stays.
                other = "fig9.c1.ph1-b8-fp32"
                await app.handle("GET", f"/profile/{other}")
                assert app.service.point_key("profile", other) in app.hot
                assert key_tiny not in app.hot
                assert app.hot.stats.evictions >= 1
                assert app.hot.size_bytes <= 3000
                return True

            assert run(scenario())
        finally:
            app.close()


class TestStaleStore:
    @pytest.fixture
    def budget(self, monkeypatch):
        """Set the module's stale byte budget for stores built after."""
        return lambda size: monkeypatch.setattr(serve_app,
                                                "STALE_STORE_BYTES", size)

    def test_eviction_is_lru_past_the_byte_budget(self, budget):
        budget(250)
        store = StaleStore(capacity=10)
        store.put("a", b"a" * 100)
        store.put("b", b"b" * 100)
        store.get("a")  # refresh a: b is now least recently used
        store.put("c", b"c" * 100)  # 300 bytes > 250: evict b
        assert store.get("b") is None
        assert store.get("a") and store.get("c")
        assert len(store) == 2 and store.bytes == 200

    def test_entry_bound_still_holds(self):
        store = StaleStore(capacity=2)
        for key in "abc":
            store.put(key, b"x")
        assert store.get("a") is None and len(store) == 2

    def test_oversize_body_is_not_kept(self, budget):
        budget(50)
        store = StaleStore(capacity=10)
        store.put("small", b"s" * 10)
        store.put("big", b"b" * 51)
        assert store.get("big") is None
        assert store.get("small") == b"s" * 10

    def test_replacing_a_key_updates_byte_accounting(self, budget):
        budget(300)
        store = StaleStore(capacity=10)
        store.put("a", b"a" * 200)
        store.put("a", b"a" * 50)
        store.put("b", b"b" * 240)  # 290 <= 300: nothing evicted
        assert store.bytes == 290 and len(store) == 2

    def test_sweep_bodies_stay_inside_the_budget_through_the_app(
            self, budget):
        """Fresh grid bodies beyond the byte budget evict the oldest."""
        budget(8_000)
        app = App(workers=1, hot_cache=HotCache())
        try:
            async def sweeps():
                for batch in (2, 3, 4, 5):
                    spec = {"model": "bert-tiny", "batch_sizes": [batch],
                            "seq_lens": [32, 64, 96, 128],
                            "precisions": ["fp32", "mixed"]}
                    response = await app.handle(
                        "POST", "/grid", json.dumps(spec).encode())
                    assert 2000 < len(response.body) < 4000
                return True

            assert run(sweeps())
            assert len(app.stale) < 4
            assert app.stale.bytes <= 8_000
        finally:
            app.close()


class TestGoldenEquivalence:
    def test_profile_matches_direct_run_point(self, app):
        """Server bytes == canonical rendering of direct engine calls."""
        from repro.experiments.common import run_point
        from repro.experiments.points import resolve_point
        from repro.profiler.breakdown import summarize

        async def scenario(host, port):
            return await http_request(host, port, "GET", f"/profile/{TINY}")

        status, _, body = run(with_server(app, scenario))
        assert status == 200

        expected = render_json(app.service.profile_payload(TINY))
        assert body == expected

        # And the summary numbers are exactly run_point's.
        model, training = resolve_point(TINY)
        _, profile = run_point(model, training, app.service.device)
        assert json.loads(body)["summary"] == summarize(profile)

    def test_perfetto_matches_cli_export_file(self, app, tmp_path):
        """Served trace is byte-identical to `repro export` output."""
        from repro.cli import main

        out = tmp_path / "tiny.json"
        assert main(["export", "--format", "perfetto", TINY,
                     str(out)]) == 0

        async def scenario(host, port):
            return await http_request(host, port, "GET", f"/perfetto/{TINY}")

        status, _, body = run(with_server(app, scenario))
        assert status == 200
        assert body == out.read_bytes()


    @pytest.mark.parametrize("order", ["fig3-first", "fig8-first"])
    def test_alias_profiles_match_their_digests(self, order):
        """Registry ids that alias one operating point serve their own
        ``/profile`` body (it names the point), in either order and
        under a hot cache too small to keep both."""
        import hashlib
        from pathlib import Path

        digests = json.loads((Path(__file__).parent / "golden"
                              / "export_digests.json").read_text())
        aliases = ["ph1-b32-fp32", "ph1-b4-fp32", "ph2-b4-fp32"]
        figures = ["fig3", "fig8"]
        if order == "fig8-first":
            figures.reverse()
        points = [f"{figure}.{alias}" for alias in aliases
                  for figure in figures]
        app = App(workers=1, hot_cache=HotCache(capacity_bytes=3000))
        try:
            async def scenario():
                bodies = []
                for point in points + points:
                    response = await app.handle("GET", f"/profile/{point}")
                    assert response.status == 200
                    bodies.append(response.body)
                return bodies

            bodies = run(scenario())
        finally:
            app.close()
        for point, body in zip(points + points, bodies):
            assert json.loads(body)["point"] == point
            assert hashlib.sha256(body).hexdigest() \
                == digests[point]["profile"]


class TestServeCli:
    def test_rejects_nonpositive_knobs(self, capsys):
        from repro.cli import main

        assert main(["serve", "--workers", "0"]) == 2
        assert main(["serve", "--queue-limit", "0"]) == 2
        assert main(["serve", "--hot-cache-mb", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_server_shortens_the_switch_interval_while_it_runs(
            self, monkeypatch):
        """``run_server`` serves under its short GIL switch interval and
        restores the caller's on exit; an in-process App is untouched."""
        import sys

        from repro.serve import http

        seen = []

        def fake_run(coro):
            coro.close()
            seen.append(sys.getswitchinterval())
            raise KeyboardInterrupt

        class _App:
            closed = False

            def close(self):
                self.closed = True

        before = sys.getswitchinterval()
        monkeypatch.setattr(http.asyncio, "run", fake_run)
        stub = _App()
        http.run_server(stub)
        assert seen == [pytest.approx(http.SWITCH_INTERVAL_S)]
        assert sys.getswitchinterval() == before
        assert stub.closed
