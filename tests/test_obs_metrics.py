"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import (MetricsRegistry, diff_snapshots, hit_rates,
                               merge_snapshots)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labeled_series_are_independent(self, registry):
        counter = registry.counter("c")
        counter.inc(result="hit")
        counter.inc(3, result="miss")
        assert counter.value(result="hit") == 1
        assert counter.value(result="miss") == 3
        assert counter.value() == 0

    def test_label_key_is_order_insensitive(self, registry):
        counter = registry.counter("c")
        counter.inc(a=1, b=2)
        counter.inc(b=2, a=1)
        assert counter.value(b=2, a=1) == 2
        assert registry.snapshot()["c"]["series"] == {"a=1,b=2": 2}

    def test_counters_only_go_up(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)


class TestGaugeAndHistogram:
    def test_gauge_keeps_last_write(self, registry):
        gauge = registry.gauge("g")
        gauge.set(1.5)
        gauge.set(0.5)
        assert gauge.value() == 0.5

    def test_histogram_stats(self, registry):
        histogram = registry.histogram("h")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.stats() == {"count": 3, "sum": 6.0,
                                     "min": 1.0, "max": 3.0,
                                     "p50": 2.0,
                                     "p90": pytest.approx(2.8),
                                     "p99": pytest.approx(2.98)}
        assert histogram.stats(experiment="none") is None

    def test_histogram_percentiles_exact_below_reservoir(self, registry):
        histogram = registry.histogram("h")
        for value in range(1, 101):  # 1..100, shuffled order irrelevant
            histogram.observe(float(value))
        stats = histogram.stats()
        assert stats["p50"] == pytest.approx(50.5)
        assert stats["p90"] == pytest.approx(90.1)
        assert stats["p99"] == pytest.approx(99.01)

    def test_histogram_reservoir_is_bounded(self, registry):
        histogram = registry.histogram("h")
        for value in range(4 * metrics_mod.RESERVOIR_SIZE):
            histogram.observe(float(value))
        series = histogram._series[""]
        assert len(series["sample"]) == metrics_mod.RESERVOIR_SIZE
        stats = histogram.stats()
        assert stats["count"] == 4 * metrics_mod.RESERVOIR_SIZE
        # The sample stays within the observed range and the quantile
        # estimates stay ordered.
        assert stats["min"] <= stats["p50"] <= stats["p90"] \
            <= stats["p99"] <= stats["max"]

    def test_single_observation_percentiles(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(7.0)
        stats = histogram.stats()
        assert stats["p50"] == stats["p90"] == stats["p99"] == 7.0


class TestRegistry:
    def test_same_name_returns_same_metric(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self, registry):
        registry.counter("c")
        with pytest.raises(TypeError):
            registry.gauge("c")

    def test_snapshot_shape(self, registry):
        registry.counter("c").inc(result="hit")
        registry.histogram("h").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"kind": "counter",
                                 "series": {"result=hit": 1}}
        assert snapshot["h"]["kind"] == "histogram"
        assert snapshot["h"]["series"][""]["count"] == 1

    def test_snapshot_is_detached(self, registry):
        counter = registry.counter("c")
        counter.inc()
        snapshot = registry.snapshot()
        counter.inc()
        assert snapshot["c"]["series"][""] == 1

    def test_thread_safety(self, registry):
        counter = registry.counter("c")

        def work():
            for _ in range(1000):
                counter.inc(result="hit")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(result="hit") == 4000


class TestSnapshotAlgebra:
    def test_diff_counters_and_drop_zero(self, registry):
        counter = registry.counter("c")
        counter.inc(5, result="hit")
        before = registry.snapshot()
        counter.inc(2, result="hit")
        delta = diff_snapshots(before, registry.snapshot())
        assert delta == {"c": {"kind": "counter",
                               "series": {"result=hit": 2}}}

    def test_diff_histograms(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        before = registry.snapshot()
        histogram.observe(5.0)
        delta = diff_snapshots(before, registry.snapshot())
        entry = delta["h"]["series"][""]
        assert entry["count"] == 1
        assert entry["sum"] == 5.0

    def test_diff_of_identical_snapshots_is_empty(self, registry):
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        assert diff_snapshots(snapshot, snapshot) == {}

    def test_merge_adds_counters_and_widens_histograms(self):
        one = {"c": {"kind": "counter", "series": {"result=hit": 2}},
               "h": {"kind": "histogram",
                     "series": {"": {"count": 1, "sum": 1.0,
                                     "min": 1.0, "max": 1.0}}}}
        two = {"c": {"kind": "counter", "series": {"result=hit": 3,
                                                   "result=miss": 1}},
               "h": {"kind": "histogram",
                     "series": {"": {"count": 2, "sum": 7.0,
                                     "min": 0.5, "max": 6.5}}}}
        merged = merge_snapshots([one, two])
        assert merged["c"]["series"] == {"result=hit": 5, "result=miss": 1}
        assert merged["h"]["series"][""] == {"count": 3, "sum": 8.0,
                                             "min": 0.5, "max": 6.5}

    def test_hit_rates(self):
        snapshot = {
            "cache": {"kind": "counter",
                      "series": {"result=hit": 3, "result=miss": 1}},
            "quiet": {"kind": "counter", "series": {}},
            "g": {"kind": "gauge", "series": {"": 1.0}},
        }
        assert hit_rates(snapshot) == {"cache.hit_rate": 0.75}


class TestTelemetryThreadLocal:
    """Operating-point counters are process-wide registry counters: a
    point resolved on any thread lands in ``run_point.*``, with no
    per-thread collector to open first."""

    def test_record_point_feeds_registry(self):
        from repro.config import BERT_TINY, TrainingConfig
        from repro.experiments.common import run_point

        training = TrainingConfig(batch_size=2, seq_len=16)
        trace, _ = run_point(BERT_TINY, training)
        resolutions = metrics_mod.counter("run_point.resolutions")
        kernels = metrics_mod.counter("run_point.kernels")
        hits_before = resolutions.value(result="hit")
        misses_before = resolutions.value(result="miss")
        kernels_before = kernels.value()

        thread = threading.Thread(target=run_point,
                                  args=(BERT_TINY, training))
        thread.start()
        thread.join()

        assert resolutions.value(result="hit") == hits_before
        assert resolutions.value(result="miss") == misses_before + 1
        assert kernels.value() == kernels_before + len(trace)
