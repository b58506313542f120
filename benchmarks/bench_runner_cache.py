"""Runner-cache benchmarks: compute vs disk-cached run_point.

The acceptance bar for the cache is that serving a ``(Trace, Profile)``
pair from disk beats recomputing it by >=2x on real figure-sized points
(BERT Large); these benchmarks keep that margin visible.
"""

import pytest

from repro.config import BERT_LARGE, Precision, training_point
from repro.experiments import common
from repro.experiments.common import run_point
from repro.profiler.profiler import profile_trace
from repro.runner import cache as cache_module
from repro.trace.bert_trace import build_iteration_trace

POINT = training_point(1, 32, Precision.FP32)


@pytest.fixture()
def isolated_cache(tmp_path):
    cache_module.configure_cache(tmp_path / "cache")
    common.clear_memo()
    yield
    cache_module.reset_cache()
    common.clear_memo()


def test_bench_trace_profile_compute(benchmark, device):
    """The uncached path: build the trace and profile it."""
    def compute():
        trace = build_iteration_trace(BERT_LARGE, POINT)
        return profile_trace(trace, device)

    profile = benchmark(compute)
    assert len(profile.records) > 1000


def test_bench_run_point_disk_hit(benchmark, isolated_cache):
    """The cached path: load the pickled pair from disk (memo cleared)."""
    run_point(BERT_LARGE, POINT)  # warm the disk cache

    def cached():
        common.clear_memo()  # force the disk path, not the memo
        return run_point(BERT_LARGE, POINT)

    trace, profile = benchmark(cached)
    assert len(trace.kernels) == len(profile.records)


def test_bench_run_point_memo_hit(benchmark, isolated_cache):
    """The in-process path: a memo lookup returning the shared pair."""
    run_point(BERT_LARGE, POINT)
    trace, _ = benchmark(run_point, BERT_LARGE, POINT)
    assert len(trace.kernels) > 1000
