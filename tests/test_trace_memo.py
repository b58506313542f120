"""The shared iteration-trace memo and the uncached builder beside it.

``iteration_trace`` hands every reader in the process one frozen trace
per ``(model, training)``; ``build_iteration_trace`` always builds, so the
benchmarks that time it keep timing real builds.  The parameter
inventory every build's optimizer tail reads is memoized per model config
the same way.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, training_point
from repro.experiments.common import run_point
from repro.hw.device import mi100
from repro.obs import metrics
from repro.trace.bert_trace import (TRACE_MEMO_SIZE, build_iteration_trace,
                                    clear_iteration_traces, iteration_trace)
from repro.trace.parameters import bert_parameter_inventory
from repro.trace.kernel_table import KernelTable

POINT = (BERT_TINY, training_point(1, 4, Precision.FP32))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_iteration_traces()
    yield
    clear_iteration_traces()


def _memo_lookups(before: dict) -> dict[str, float]:
    delta = metrics.diff_snapshots(before, metrics.get_registry().snapshot())
    series = delta.get("trace.memo", {}).get("series", {})
    return {"hit": series.get("result=hit", 0),
            "miss": series.get("result=miss", 0)}


def test_repeat_lookup_returns_the_same_trace():
    assert iteration_trace(*POINT) is iteration_trace(*POINT)


@pytest.mark.parametrize("training", [
    training_point(1, 32, Precision.FP32),
    training_point(2, 4, Precision.MIXED),
])
def test_memoized_trace_has_the_builder_columns(training):
    shared = iteration_trace(BERT_LARGE, training)
    fresh = build_iteration_trace(BERT_LARGE, training)
    assert (shared.model, shared.training) == (BERT_LARGE, training)
    for field in KernelTable._FIELDS:
        a, b = getattr(shared.table, field), getattr(fresh.table, field)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field)
        else:
            assert a == b, field
    assert shared.table.gemms == fresh.table.gemms


def test_distinct_points_get_distinct_traces():
    other = training_point(1, 8, Precision.FP32)
    assert iteration_trace(POINT[0], other) is not iteration_trace(*POINT)
    assert iteration_trace(POINT[0], other).training == other


def test_clear_iteration_traces_drops_memoized_traces():
    first = iteration_trace(*POINT)
    clear_iteration_traces()
    second = iteration_trace(*POINT)
    assert second is not first
    assert (second.model, second.training, second.kernels) \
        == (first.model, first.training, first.kernels)


def test_memo_counts_one_miss_then_hits():
    before = metrics.get_registry().snapshot()
    for _ in range(3):
        iteration_trace(*POINT)
    assert _memo_lookups(before) == {"hit": 2, "miss": 1}


def test_builder_returns_a_fresh_trace_every_call():
    iteration_trace(*POINT)  # a memoized copy must not leak into builds
    before = metrics.get_registry().snapshot()
    first = build_iteration_trace(*POINT)
    second = build_iteration_trace(*POINT)
    assert first is not second
    assert first.table is not second.table
    assert first is not iteration_trace(*POINT)
    assert _memo_lookups(before) == {"hit": 1, "miss": 0}


def test_run_point_builds_through_the_memo():
    trace, _ = run_point(*POINT, mi100())
    assert trace is iteration_trace(*POINT)


def test_parameter_inventory_is_one_tuple_per_config():
    bert_parameter_inventory.cache_clear()
    inventory = bert_parameter_inventory(BERT_TINY)
    assert isinstance(inventory, tuple)
    assert bert_parameter_inventory(BERT_TINY) is inventory
    twin = dataclasses.replace(BERT_TINY)  # equal, but another object
    assert twin is not BERT_TINY
    assert bert_parameter_inventory(twin) is inventory
    info = bert_parameter_inventory.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 2, 1)
    assert info.maxsize == TRACE_MEMO_SIZE
