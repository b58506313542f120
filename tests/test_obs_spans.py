"""Tests for the span tracer (:mod:`repro.obs.spans`)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.spans import (Span, SpanTracer, aggregate_spans, get_tracer,
                             merge_span_summaries, span, traced)
from repro.runner.manifest import render_spans


@pytest.fixture
def tracer():
    tracer = SpanTracer()
    tracer.enable()
    return tracer


class TestSpanBasics:
    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            pass
        assert tracer.reset() == []

    def test_disabled_span_is_shared_noop(self):
        tracer = SpanTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_span_records_duration_and_attrs(self, tracer):
        with tracer.span("work", kernels=7):
            time.sleep(0.001)
        (record,) = tracer.reset()
        assert record.name == "work"
        assert record.duration_s >= 0.001
        assert record.attrs == {"kernels": 7}

    def test_nesting_sets_parent_and_depth(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.reset()  # finish order: inner first
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.parent_id == -1

    def test_annotate_targets_innermost_open_span(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(result="hit")
        inner, outer = tracer.reset()
        assert inner.attrs == {"result": "hit"}
        assert outer.attrs == {}

    def test_current_tracks_the_open_stack(self, tracer):
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_span_survives_exceptions(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.reset()
        assert record.name == "doomed"
        assert record.end_s >= record.start_s
        assert tracer.current() is None  # stack unwound

    def test_as_dict_is_json_shaped(self, tracer):
        with tracer.span("work", category="test", n=1):
            pass
        payload = tracer.reset()[0].as_dict()
        assert payload["name"] == "work"
        assert payload["category"] == "test"
        assert payload["attrs"] == {"n": 1}
        assert payload["duration_s"] >= 0


class TestThreadSafety:
    def test_stacks_are_per_thread(self, tracer):
        """Spans on different threads must not nest into each other."""
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # both spans open concurrently
                barrier.wait()

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = tracer.reset()
        assert len(records) == 2
        assert all(r.parent_id == -1 and r.depth == 0 for r in records)
        assert len({r.span_id for r in records}) == 2
        assert len({r.thread_id for r in records}) == 2

    def test_concurrent_spans_all_collected(self, tracer):
        def work():
            for _ in range(50):
                with tracer.span("w"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.reset()) == 200


class TestCapture:
    def test_capture_enables_and_scopes(self):
        tracer = SpanTracer()
        assert not tracer.enabled
        with tracer.capture() as scope:
            assert tracer.enabled
            with tracer.span("inside"):
                pass
        assert not tracer.enabled
        assert [s.name for s in scope.spans] == ["inside"]
        assert tracer.reset() == []  # outermost scope drained

    def test_nested_captures_share_spans(self):
        tracer = SpanTracer()
        with tracer.capture() as outer:
            with tracer.span("before"):
                pass
            with tracer.capture() as inner:
                with tracer.span("within"):
                    pass
            assert tracer.enabled  # inner exit must not disable
        assert [s.name for s in inner.spans] == ["within"]
        assert [s.name for s in outer.spans] == ["before", "within"]


class TestModuleLevelAPI:
    def test_module_span_reports_to_process_tracer(self):
        tracer = get_tracer()
        with tracer.capture() as scope:
            with span("module.level", flag=True):
                pass
        assert [s.name for s in scope.spans] == ["module.level"]
        assert scope.spans[0].attrs == {"flag": True}

    def test_traced_decorator(self):
        @traced("decorated.work")
        def work(x):
            return x * 2

        assert work(3) == 6  # disabled: plain call
        with get_tracer().capture() as scope:
            assert work(4) == 8
        assert [s.name for s in scope.spans] == ["decorated.work"]

    def test_traced_default_name(self):
        @traced()
        def helper():
            return None

        with get_tracer().capture() as scope:
            helper()
        assert scope.spans[0].name.endswith("helper")


class TestAggregation:
    def test_aggregate_spans(self, tracer):
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        summary = aggregate_spans(tracer.reset())
        assert summary["a"]["count"] == 3
        assert summary["b"]["count"] == 1
        assert summary["a"]["total_s"] >= summary["a"]["max_s"] >= 0

    def test_merge_span_summaries(self):
        one = {"a": {"count": 2, "total_s": 1.0, "max_s": 0.8}}
        two = {"a": {"count": 1, "total_s": 0.5, "max_s": 0.5},
               "b": {"count": 1, "total_s": 0.1, "max_s": 0.1}}
        merged = merge_span_summaries([one, two])
        assert merged["a"] == {"count": 3, "total_s": 1.5, "max_s": 0.8}
        assert merged["b"]["count"] == 1

    def test_merge_of_nothing_is_empty(self):
        assert merge_span_summaries([]) == {}

    def test_self_time_excludes_children(self):
        # A 10 ms root covering a 4 ms child, plus two overlapping 3 ms
        # grandchildren (worker threads) covering 4 ms of the child.
        spans = [
            Span("child", start_s=0.002, end_s=0.006, span_id=2,
                 parent_id=1),
            Span("leaf", start_s=0.002, end_s=0.005, span_id=3,
                 parent_id=2),
            Span("leaf", start_s=0.003, end_s=0.006, span_id=4,
                 parent_id=2),
            Span("root", start_s=0.0, end_s=0.010, span_id=1),
        ]
        summary = aggregate_spans(spans)
        assert summary["root"]["self_s"] == pytest.approx(0.006)
        assert summary["child"]["self_s"] == pytest.approx(0.0)
        assert summary["leaf"]["self_s"] == pytest.approx(0.006)
        assert summary["leaf"]["total_s"] == pytest.approx(0.006)

        nested = aggregate_spans(spans[:1] + spans[3:])
        assert sum(e["self_s"] for e in nested.values()) == pytest.approx(
            0.010)
        merged = merge_span_summaries([nested, nested])
        assert merged["root"]["self_s"] == pytest.approx(0.012)
        footer = render_spans(
            {"observability": {"spans": nested}}).splitlines()[-1]
        assert "10.00 ms total traced time" in footer
