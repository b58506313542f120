"""Scaling-trends tests plus coverage of miscellaneous helpers."""

import pytest

from repro.config import BERT_TINY, TrainingConfig
from repro.experiments import scaling_trends
from repro.ops import (IntensityRecord, bandwidth_demand, group_intensity,
                       kernel_intensity)
from repro.ops.base import Component, DType, OpClass, Phase, Region
from repro.ops.elementwise import elementwise
from repro.trace import build_iteration_trace


class TestScalingTrends:
    @pytest.fixture(scope="class")
    def rows(self):
        return scaling_trends.run()

    def test_ladder_order_and_sizes(self, rows):
        params = [row.parameters for row in rows]
        assert params == sorted(params)
        assert rows[0].parameters < 120e6        # BERT Base
        assert rows[-1].parameters > 6e9         # GPT-3-6.7B-like

    def test_lamb_share_grows_monotonically(self, rows):
        # Takeaway 11 extrapolated to the intro's model lineage.
        shares = [row.lamb for row in rows]
        assert shares == sorted(shares)
        assert shares[-1] > 0.25

    def test_linear_fc_share_grows(self, rows):
        shares = [row.linear_fc for row in rows]
        assert shares == sorted(shares)

    def test_memory_wall_forces_model_parallelism(self, rows):
        # The billion-parameter models cannot train on one 32 GB device —
        # the motivation for Sec. 5's tensor slicing.
        by_name = {row.name: row for row in rows}
        assert by_name["bert-large"].fits_32gb
        assert not by_name["megatron-3.9b"].fits_32gb
        assert not by_name["gpt3-6.7b-like"].fits_32gb

    def test_render(self, rows):
        out = scaling_trends.render(rows)
        assert "model parallel" in out and "megatron-3.9b" in out


class TestIntensityHelpers:
    def _kernel(self, flops=100, n=1000):
        return elementwise("k", n_elements=n, dtype=DType.FP32,
                           phase=Phase.FORWARD,
                           component=Component.TRANSFORMER,
                           region=Region.DR_RC_LN,
                           flops_per_element=flops / n)

    def test_kernel_intensity(self):
        record = kernel_intensity(self._kernel())
        assert record.label == "k"
        assert record.intensity == pytest.approx(100 / 8000)

    def test_group_intensity_sums(self):
        kernels = [self._kernel(), self._kernel()]
        record = group_intensity("pair", kernels)
        assert record.flops == 200
        assert record.bytes_total == 16000

    def test_group_intensity_rejects_byte_free_group(self):
        zero = IntensityRecord(label="z", flops=0, bytes_total=0)
        assert zero.intensity == 0.0
        with pytest.raises(ValueError):
            group_intensity("empty", [])

    def test_bandwidth_demand(self):
        kernels = [self._kernel(), self._kernel()]
        bw = bandwidth_demand(kernels, [1e-3, 1e-3])
        assert bw == pytest.approx(16000 / 2e-3)
        with pytest.raises(ValueError):
            bandwidth_demand(kernels, [0.0, 0.0])


class TestTraceHelpers:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_iteration_trace(BERT_TINY,
                                     TrainingConfig(batch_size=2,
                                                    seq_len=16))

    def test_kernel_count_matches_select(self, trace):
        assert (trace.kernel_count(op_class=OpClass.GEMM)
                == len(trace.select(op_class=OpClass.GEMM)))

    def test_gemm_non_gemm_partition(self, trace):
        assert len(trace.gemms()) + len(trace.non_gemms()) == len(trace)

    def test_totals_positive(self, trace):
        assert trace.total_flops > 0
        assert trace.total_bytes > 0

    def test_iteration_is_deterministic(self):
        a = build_iteration_trace(BERT_TINY,
                                  TrainingConfig(batch_size=2, seq_len=16))
        b = build_iteration_trace(BERT_TINY,
                                  TrainingConfig(batch_size=2, seq_len=16))
        assert ([k.name for k in a.kernels]
                == [k.name for k in b.kernels])
        assert a.total_flops == b.total_flops


class TestReportEdgeCases:
    def test_stacked_bar_pads_remainder(self):
        from repro.report import stacked_bar
        out = stacked_bar([("x", 0.3)], width=20)
        bar = out.splitlines()[0]
        assert bar.count(" ") >= 13  # unfilled remainder stays blank

    def test_bar_chart_label_alignment(self):
        from repro.report import bar_chart
        out = bar_chart([("long-label", [("x", 1.0)]),
                         ("s", [("y", 1.0)])])
        lines = out.splitlines()
        assert lines[0].index("|") == lines[2].index("|")


class TestRunPointCustomDevice:
    def test_custom_device_bypasses_cache(self):
        from repro.config import TrainingConfig
        from repro.experiments.common import run_point
        from repro.hw import balanced_accelerator

        custom = balanced_accelerator(100.0, 2000.0, name="weird")
        trace, profile = run_point(
            BERT_TINY, TrainingConfig(batch_size=2, seq_len=16), custom)
        assert profile.device.name == "weird"
        assert len(trace) == len(profile)

    def test_default_device_results_cached(self):
        from repro.config import TrainingConfig
        from repro.experiments.common import run_point

        training = TrainingConfig(batch_size=2, seq_len=16)
        first = run_point(BERT_TINY, training)
        second = run_point(BERT_TINY, training)
        assert first[0] is second[0]  # one memoized, immutable trace


class TestPackingStudy:
    def test_savings_ordered_by_pair_length(self):
        from repro.experiments import packing_study
        rows = packing_study.run(segments=256)
        saved = [row.compute_saved for row in rows]
        # Shorter pairs pack denser -> bigger savings.
        assert saved == sorted(saved, reverse=True)
        assert saved[0] > 0.7

    def test_occupancy_high_everywhere(self):
        from repro.experiments import packing_study
        for row in packing_study.run(segments=256):
            assert row.mean_efficiency > 0.85
            assert row.sequences_packed < row.sequences_unpacked

    def test_render_includes_context(self):
        from repro.experiments import packing_study
        out = packing_study.render(packing_study.run(segments=128))
        assert "compute saved" in out and "occupancy" in out
