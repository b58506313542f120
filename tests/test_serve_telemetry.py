"""Request-scoped telemetry through the serve stack.

The acceptance surface of the telemetry pipeline, asserted against the
real App (and, for header checks, the real socket transport):

* a cold ``/profile`` request is **one connected span tree** under one
  ``trace_id`` — ``serve.request`` rooting the engine spans the worker
  thread opened (trace build, profiling, kernel timing);
* ``GET /metrics`` emits valid Prometheus exposition;
* ``GET /debug/trace/<id>`` round-trips the tree through the Perfetto
  exporter's ``validate_chrome_trace``;
* under the 100-client coalescing storm every request keeps its own
  trace id and only the leader's tree carries engine spans;
* batch runs (``--jobs N``) stamp per-experiment trace ids into results
  and manifests.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.flight import build_span_tree
from repro.obs.prometheus import CONTENT_TYPE, validate_exposition
from repro.obs.timeline_export import validate_chrome_trace
from repro.serve import App, HotCache

TINY = "tiny.ph1-b2-fp32"


@pytest.fixture
def app():
    instance = App(workers=2, queue_limit=8, hot_cache=HotCache())
    yield instance
    instance.close()


@pytest.fixture
def cold_engine(tmp_path, monkeypatch):
    """Point the disk cache at an empty directory and drop the memo, so
    the request under test actually computes (and opens engine spans)."""
    from repro.runner import cache
    from repro.trace.bert_trace import clear_iteration_traces

    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    cache.reset_cache()
    clear_iteration_traces()
    yield
    clear_iteration_traces()
    monkeypatch.undo()
    cache.reset_cache()


def run(coro):
    return asyncio.run(coro)


class TestConnectedSpanTree:
    def test_cold_profile_request_yields_one_connected_tree(self, app,
                                                            cold_engine):
        """The tentpole acceptance criterion: serve -> engine in one
        trace, across the executor boundary."""
        response = run(app.handle("GET", f"/profile/{TINY}"))
        assert response.status == 200

        (record,) = [r for r in app.flight.records()
                     if r.route == "profile"]
        assert record.cache == "computed"
        assert record.trace_id == response.headers["X-Trace-Id"]

        # Every span of the request shares the record's trace id.
        assert {s["trace_id"] for s in record.spans} == {record.trace_id}

        # One root: serve.request; the engine spans opened inside the
        # worker thread hang off it (the executor carried the context).
        roots = build_span_tree(record.spans)
        assert [r["name"] for r in roots] == ["serve.request"]
        (profile_run,) = roots[0]["children"]
        assert profile_run["name"] == "profile.run"

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        descendants = set(names(profile_run))
        assert "trace.build_iteration" in descendants
        assert "timing.kernel_times" in descendants

        # Depths are consistent with the nesting.
        assert roots[0]["depth"] == 0
        assert profile_run["depth"] == 1

    def test_grid_span_count_does_not_grow_with_points(self, app,
                                                       cold_engine):
        """A fresh sweep opens one summary span per grid, not one per
        point: one stamp family of 1 or 12 points records as many
        spans."""
        def spans_of(batch_sizes, seq_lens):
            spec = {"model": "bert-tiny", "batch_sizes": batch_sizes,
                    "seq_lens": seq_lens, "precisions": ["fp32"]}
            response = run(app.handle("POST", "/grid",
                                      json.dumps(spec).encode()))
            assert response.status == 200
            record = app.flight.lookup(response.headers["X-Trace-Id"])
            assert record.cache == "computed"
            return sorted(s["name"] for s in record.spans)

        small = spans_of([2], [32])
        large = spans_of([2, 3, 4, 5], [32, 64, 96])
        assert "grid.summarize" in small
        assert "breakdown.summarize" not in small
        assert len(large) == len(small)

    def test_hot_hit_records_no_engine_spans(self, app):
        async def twice():
            await app.handle("GET", f"/profile/{TINY}")
            return await app.handle("GET", f"/profile/{TINY}")

        run(twice())
        hot = [r for r in app.flight.records() if r.cache == "hot"]
        assert len(hot) == 1
        assert [s["name"] for s in hot[0].spans] == ["serve.request"]

    def test_storm_keeps_trace_ids_disjoint(self, app):
        """100 concurrent identical requests: one computation, 100
        distinct traces, engine spans only under the leader's root."""
        async def storm():
            return await asyncio.gather(*(
                app.handle("GET", f"/profile/{TINY}") for _ in range(100)))

        responses = run(storm())
        assert [r.status for r in responses] == [200] * 100

        records = [r for r in app.flight.records() if r.route == "profile"]
        assert len(records) >= 100
        storm_records = records[:100]
        assert len({r.trace_id for r in storm_records}) == 100

        computed = [r for r in storm_records if r.cache == "computed"]
        coalesced = [r for r in storm_records if r.cache == "coalesced"]
        assert len(computed) == 1
        assert len(coalesced) == 99

        # The leader's tree contains the compute; followers only their
        # own serve.request span.
        (leader,) = computed
        leader_names = {s["name"] for s in leader.spans}
        assert "profile.run" in leader_names
        for follower in coalesced:
            assert [s["name"] for s in follower.spans] == ["serve.request"]
            (root,) = build_span_tree(follower.spans)
            assert root["children"] == []


class TestMetricsEndpoint:
    def test_metrics_is_valid_exposition(self, app):
        async def scenario():
            await app.handle("GET", "/healthz")
            return await app.handle("GET", "/metrics")

        response = run(scenario())
        assert response.status == 200
        assert response.content_type == CONTENT_TYPE
        text = response.body.decode()
        assert validate_exposition(text) == []
        assert "serve_requests_total" in text

    def test_metrics_rejects_post(self, app):
        response = run(app.handle("POST", "/metrics"))
        assert response.status == 405


class TestDebugEndpoints:
    def test_debug_requests_lists_the_ring(self, app):
        async def scenario():
            await app.handle("GET", f"/profile/{TINY}")
            return await app.handle("GET", "/debug/requests")

        response = run(scenario())
        payload = json.loads(response.body)
        assert payload["flight"]["capacity"] == app.flight.capacity
        routes = [r["route"] for r in payload["requests"]]
        assert "profile" in routes
        for entry in payload["requests"]:
            assert {"trace_id", "route", "status", "duration_ms",
                    "cache", "spans"} <= set(entry)

    def test_debug_trace_round_trips_through_perfetto(self, app):
        async def scenario():
            first = await app.handle("GET", f"/profile/{TINY}")
            trace_id = first.headers["X-Trace-Id"]
            return await app.handle("GET", f"/debug/trace/{trace_id}")

        response = run(scenario())
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["spans"]
        assert payload["tree"][0]["name"] == "serve.request"
        assert validate_chrome_trace(payload["perfetto"]) == []

    def test_debug_trace_unknown_id_is_404(self, app):
        response = run(app.handle("GET", "/debug/trace/deadbeef00000000"))
        assert response.status == 404

    def test_trace_id_header_reaches_the_socket_client(self, app):
        from tests.test_serve import http_request, with_server

        async def scenario(host, port):
            return await http_request(host, port, "GET", "/healthz")

        _, headers, _ = run(with_server(app, scenario))
        assert len(headers["x-trace-id"]) == 16


class TestStatsExtensions:
    def test_stats_reports_routes_latency_and_flight(self, app):
        async def scenario():
            await app.handle("GET", f"/profile/{TINY}")
            await app.handle("GET", "/healthz")
            return await app.handle("GET", "/stats")

        payload = json.loads(run(scenario()).body)
        assert payload["uptime_s"] >= 0
        assert payload["hot_cache"]["capacity_bytes"] > 0
        assert {"bytes", "evictions"} <= set(payload["hot_cache"])

        by_route = payload["requests_by_route"]
        assert by_route["profile"]["total"] >= 1
        assert by_route["profile"]["by_status"]["200"] >= 1

        latency = payload["route_latency"]
        assert latency["profile"]["count"] >= 1
        assert {"mean_ms", "p50_ms", "p99_ms"} <= set(latency["profile"])

        assert payload["flight"]["recorded"] >= 2
        assert payload["flight"]["capacity"] == app.flight.capacity


class TestRunnerTraceIds:
    def test_batch_results_and_manifest_carry_trace_ids(self):
        """``repro run all --jobs N``: the parent pre-assigns one trace
        id per experiment; results (even failures) and the manifest
        carry them."""
        from repro.runner.executor import run_experiments
        from repro.runner.manifest import build_manifest

        results = run_experiments(["ghost.one", "ghost.two"], jobs=2,
                                  use_result_cache=False)
        trace_ids = [r.trace_id for r in results]
        assert all(len(t) == 16 for t in trace_ids)
        assert len(set(trace_ids)) == 2

        manifest = build_manifest(results, jobs=2, command="run all")
        listed = [e["trace_id"] for e in manifest["experiments"]]
        assert listed == trace_ids

    def test_run_one_attaches_the_given_context(self):
        """Spans a (simulated) worker opens join the parent's trace."""
        from repro.obs import spans
        from repro.runner.executor import run_one

        tracer = spans.get_tracer()
        context = spans.TraceContext(trace_id=spans.new_trace_id())
        with tracer.capture() as scope:
            result = run_one("ghost.experiment", use_result_cache=False,
                             trace_context=context.as_dict())
        assert result.trace_id == context.trace_id
        experiment_spans = [s for s in scope.spans
                            if s.name == "experiment.ghost.experiment"]
        assert experiment_spans
        assert all(s.trace_id == context.trace_id
                   for s in experiment_spans)

    def test_run_one_generates_a_trace_id_when_none_given(self):
        from repro.runner.executor import run_one

        result = run_one("ghost.experiment", use_result_cache=False)
        assert len(result.trace_id) == 16
