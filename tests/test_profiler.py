"""Tests for the simulated profiler and breakdown aggregation."""

import json

import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, TrainingConfig, training_point
from repro.hw import mi100
from repro.ops.base import Component, Phase, Region
from repro.profiler import (REGION_ORDER, component_breakdown, gemm_fraction,
                            memory_bound_fraction, optimizer_fraction,
                            profile_trace, region_breakdown, summarize,
                            to_json, transformer_breakdown)
from repro.trace import build_iteration_trace


@pytest.fixture(scope="module")
def profile():
    trace = build_iteration_trace(BERT_TINY,
                                  TrainingConfig(batch_size=2, seq_len=16))
    return profile_trace(trace.kernels, mi100())


class TestProfile:
    def test_every_kernel_timed_positive(self, profile):
        assert len(profile) > 0
        assert all(r.time_s > 0 for r in profile.records)

    def test_total_time_is_sum(self, profile):
        assert profile.total_time == pytest.approx(
            sum(r.time_s for r in profile.records))

    def test_time_of_filters_partition(self, profile):
        by_phase = sum(profile.time_of(phase=p)
                       for p in (Phase.FORWARD, Phase.BACKWARD,
                                 Phase.OPTIMIZER))
        assert by_phase == pytest.approx(profile.total_time)

    def test_fraction_where_bounds(self, profile):
        f = profile.fraction_where(lambda k: k.op_class.is_gemm)
        assert 0.0 < f < 1.0

    def test_achieved_rates(self, profile):
        record = profile.records[0]
        row = json.loads(to_json(profile))["kernels"][0]
        assert row["achieved_gbps"] == round(
            record.kernel.bytes_total / record.time_s / 1e9, 2)


class TestBreakdowns:
    def test_component_breakdown_sums_to_one(self, profile):
        entries = component_breakdown(profile)
        assert sum(e.fraction for e in entries) == pytest.approx(1.0)

    def test_region_breakdown_covers_transformer(self, profile):
        regions = region_breakdown(profile)
        assert set(regions) == set(REGION_ORDER)
        transformer = profile.time_of(component=Component.TRANSFORMER)
        assert sum(e.time_s for e in regions.values()) == pytest.approx(
            transformer)

    def test_transformer_breakdown_matches_regions(self, profile):
        bars = {e.label: e.time_s for e in transformer_breakdown(profile)}
        regions = region_breakdown(profile)
        attention = sum(regions[r].time_s for r in
                        (Region.ATTENTION_LINEAR, Region.ATTENTION_BGEMM,
                         Region.ATTENTION_SMDSM))
        assert bars["attention"] == pytest.approx(attention)

    def test_gemm_plus_non_gemm_is_one(self, profile):
        assert (gemm_fraction(profile) + memory_bound_fraction(profile)
                == pytest.approx(1.0))

    def test_summarize_keys(self, profile):
        s = summarize(profile)
        assert set(s) == {"total_time_s", "transformer", "output",
                          "embedding", "optimizer", "gemm", "non_gemm"}
        component_sum = (s["transformer"] + s["output"] + s["embedding"]
                         + s["optimizer"])
        assert component_sum == pytest.approx(1.0)

    def test_optimizer_fraction(self, profile):
        assert optimizer_fraction(profile) == pytest.approx(
            profile.time_of(component=Component.OPTIMIZER)
            / profile.total_time)


class TestScalingSanity:
    """Coarse physical sanity of the timing model at BERT Large scale."""

    def test_iteration_time_plausible(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        profile = profile_trace(trace.kernels, mi100())
        # A B=32, n=128 FP32 iteration on an MI100-class GPU lands in the
        # hundreds of milliseconds.
        assert 0.1 < profile.total_time < 2.0

    def test_mixed_precision_speeds_up_iteration(self):
        fp32 = profile_trace(build_iteration_trace(
            BERT_LARGE, training_point(1, 32, Precision.FP32)).kernels,
            mi100())
        mp = profile_trace(build_iteration_trace(
            BERT_LARGE, training_point(1, 32, Precision.MIXED)).kernels,
            mi100())
        # Paper: FWD+BWD speed up ~2x under MP.
        speedup = fp32.total_time / mp.total_time
        assert 1.6 < speedup < 3.0

    def test_phase2_slower_than_phase1_at_equal_tokens(self):
        # Iteration time grows superlinearly with n (Sec. 3.3.1).
        ph1 = profile_trace(build_iteration_trace(
            BERT_LARGE, training_point(1, 16, Precision.FP32)).kernels,
            mi100())
        ph2 = profile_trace(build_iteration_trace(
            BERT_LARGE, training_point(2, 4, Precision.FP32)).kernels,
            mi100())
        assert ph2.total_time > ph1.total_time
