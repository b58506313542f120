"""Tests for the characterization facade, the event-driven timing backend,
pipeline parallelism, calibration tooling and the roofline plot."""

import pytest

from repro.config import (BERT_LARGE, BERT_TINY, Precision, TrainingConfig,
                          training_point)
from repro.core import Characterization, characterize
from repro.distributed import (PCIE4, XGMI, best_micro_batch_count,
                               pipeline_bubble_fraction, pipeline_timeline,
                               tensor_slicing_timeline)
from repro.hw import compare_backends, mi100, simulate_kernel
from repro.hw.calibration import (CalibrationTarget, calibrate, get_knobs,
                                  objective, paper_targets, set_knobs)
from repro.ops.base import DType
from repro.report.roofline_plot import roofline_plot
from repro.trace import build_iteration_trace


@pytest.fixture(scope="module")
def device():
    return mi100()


class TestCharacterize:
    @pytest.fixture(scope="class")
    def result(self) -> Characterization:
        return characterize(BERT_LARGE)

    def test_defaults(self, result):
        assert result.training.label == "Ph1-B32-FP32"
        assert result.device_name == "mi100"

    def test_summary_consistent_with_profile(self, result):
        assert result.iteration_s == pytest.approx(
            result.profile.total_time)
        assert result.summary["gemm"] + result.summary["non_gemm"] == (
            pytest.approx(1.0))

    def test_gemm_heterogeneity_story(self, result):
        families = {g.family: g for g in result.gemm_classes}
        assert families["fc"].min_intensity > families[
            "attention"].max_intensity
        assert families["attention"].memory_bound_count == (
            families["attention"].count)
        assert families["fc"].memory_bound_count == 0

    def test_throughput_positive(self, result):
        assert result.tokens_per_second > 1000

    def test_report_renders(self, result):
        text = result.report()
        assert "bert-large" in text and "GEMM family" in text

    def test_custom_point(self):
        result = characterize(BERT_TINY,
                              TrainingConfig(batch_size=2, seq_len=16))
        assert result.footprint.total < 1e9


class TestMicrosimBackend:
    def test_agrees_with_analytical_on_full_trace(self, device):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        comparison = compare_backends(trace.kernels, device)
        assert 0.9 < comparison.ratio < 1.15

    def test_agrees_under_mixed_precision(self, device):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 4, Precision.MIXED))
        comparison = compare_backends(trace.kernels, device)
        assert 0.9 < comparison.ratio < 1.2

    def test_wave_accounting(self, device):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        gemm = next(k for k in trace.gemms() if k.gemm.m == 4096)
        result = simulate_kernel(gemm, device)
        assert result.waves >= 1
        assert 0.0 < result.tail_utilization <= 1.0
        assert result.time_s > device.kernel_launch_overhead_s

    def test_tail_effect_visible(self, device):
        """A kernel whose tiles slightly exceed one wave pays for two."""
        from repro.ops.gemm import GemmShape
        import dataclasses
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2,
                                                     seq_len=16))
        base = next(k for k in trace.gemms())
        one_wave = dataclasses.replace(
            base, gemm=GemmShape(m=128, n=128, k=512, batch=120),
            flops=GemmShape(m=128, n=128, k=512, batch=120).flops)
        two_waves = dataclasses.replace(
            base, gemm=GemmShape(m=128, n=128, k=512, batch=121),
            flops=GemmShape(m=128, n=128, k=512, batch=121).flops)
        t1 = simulate_kernel(one_wave, device)
        t2 = simulate_kernel(two_waves, device)
        # One extra tile forces either an extra wave at the same tiling or
        # a smaller-tile retiling; both cost real time for ~1% more FLOPs.
        assert t2.waves > t1.waves
        assert t2.time_s > 1.4 * t1.time_s

    def test_rejects_communication(self, device):
        from repro.ops.base import (Component, Kernel, OpClass, Phase,
                                    Region)
        kernel = Kernel(name="c", op_class=OpClass.COMMUNICATION,
                        phase=Phase.COMMUNICATION,
                        component=Component.COMMUNICATION,
                        region=Region.COMM_ALLREDUCE, flops=0,
                        bytes_read=0, bytes_written=0)
        with pytest.raises(ValueError):
            simulate_kernel(kernel, device)


class TestPipeline:
    b32 = training_point(1, 32, Precision.FP32)

    def test_bubble_formula(self):
        assert pipeline_bubble_fraction(4, 12) == pytest.approx(3 / 15)
        assert pipeline_bubble_fraction(1, 8) == 0.0
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(0, 4)

    def test_more_micro_batches_shrink_bubble(self, device):
        few = pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                                stages=4, micro_batches=4)
        many = pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                                 stages=4, micro_batches=16)
        assert (many.fraction("pipeline_bubble")
                < few.fraction("pipeline_bubble"))

    def test_encoder_and_optimizer_shard_by_stages(self, device):
        one = pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                                stages=1, micro_batches=1)
        four = pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                                 stages=4, micro_batches=16)
        assert four.buckets["transformer"] == pytest.approx(
            one.buckets["transformer"] / 4)
        assert four.buckets["optimizer"] == pytest.approx(
            one.buckets["optimizer"] / 4)

    def test_stage_divisibility_enforced(self, device):
        with pytest.raises(ValueError):
            pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                              stages=5, micro_batches=4)
        with pytest.raises(ValueError):
            pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                              stages=4, micro_batches=5)

    def test_best_micro_batch_is_an_interior_optimum(self, device):
        micro, timeline = best_micro_batch_count(
            BERT_LARGE, self.b32, device, PCIE4, stages=8)
        assert micro in (1, 2, 4, 8, 16, 32)
        assert timeline.total > 0

    def test_pipeline_vs_tensor_slicing_on_slow_link(self, device):
        # On PCIe, pipelining's bubble costs less than TS's serialized
        # activation AllReduces.
        ts = tensor_slicing_timeline(BERT_LARGE, self.b32, device, PCIE4, 8)
        pp = pipeline_timeline(BERT_LARGE, self.b32, device, PCIE4,
                               stages=8, micro_batches=32)
        assert pp.total < ts.total

    def test_fast_link_narrows_the_gap(self, device):
        ts_fast = tensor_slicing_timeline(BERT_LARGE, self.b32, device,
                                          XGMI, 8)
        ts_slow = tensor_slicing_timeline(BERT_LARGE, self.b32, device,
                                          PCIE4, 8)
        assert ts_fast.total < ts_slow.total


class TestCalibration:
    def test_shipped_constants_hit_target_bands(self, device):
        """The frozen preset lands within tolerance of every target."""
        from repro.profiler.breakdown import summarize
        from repro.profiler.profiler import profile_trace
        for target in paper_targets():
            trace = build_iteration_trace(BERT_LARGE, target.training)
            stats = summarize(profile_trace(trace.kernels, device))
            assert abs(stats[target.metric] - target.value) < 0.10, (
                target.name)

    def test_knob_roundtrip(self, device):
        knobs = get_knobs(device)
        rebuilt = set_knobs(device, knobs)
        assert get_knobs(rebuilt) == knobs

    def test_set_knobs_validation(self, device):
        with pytest.raises(KeyError):
            set_knobs(device, {"bogus": 0.5})
        knobs = get_knobs(device)
        knobs["streaming_bw"] = 2.0
        with pytest.raises(ValueError):
            set_knobs(device, knobs)

    def test_calibrate_improves_objective(self, device):
        targets = paper_targets()[:3]  # keep the test quick
        result = calibrate(device, BERT_LARGE, targets, max_iterations=2)
        assert result.final_error <= result.initial_error
        assert result.iterations >= 1

    def test_objective_rejects_unknown_metric(self, device):
        bad = CalibrationTarget("x", training_point(1, 4, Precision.FP32),
                                "bogus", 0.5)
        with pytest.raises(KeyError):
            objective(device, BERT_LARGE, [bad])

    def test_calibrate_requires_targets(self, device):
        with pytest.raises(ValueError):
            calibrate(device, BERT_LARGE, [])


class TestRooflinePlot:
    def test_plot_structure(self, device):
        out = roofline_plot([("fc", 340.0), ("ew", 0.2)], device)
        lines = out.splitlines()
        assert lines[0].startswith("attainable")
        assert any("ridge point" in line for line in lines)
        assert "A fc" in out and "B ew" in out
        assert "compute-bound" in out and "memory-bound" in out

    def test_markers_placed(self, device):
        out = roofline_plot([("x", 1.0)], device, width=40, height=10)
        plot_lines = [l for l in out.splitlines() if l.startswith("|")]
        assert any("A" in line for line in plot_lines)

    def test_validation(self, device):
        with pytest.raises(ValueError):
            roofline_plot([], device)
        with pytest.raises(ValueError):
            roofline_plot([("x", 1.0)], device, width=5)

    def test_fp16_roof_higher(self, device):
        out32 = roofline_plot([("x", 1.0)], device, dtype=DType.FP32)
        out16 = roofline_plot([("x", 1.0)], device, dtype=DType.FP16)
        def roof(text):
            line = next(l for l in text.splitlines() if "compute roof" in l)
            return float(line.split("compute roof:")[1].split("TFLOP")[0])
        assert roof(out16) > roof(out32)
