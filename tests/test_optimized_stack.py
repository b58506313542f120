"""Tests for the fused-attention trace transform and the Sec. 6 capstone."""

import pytest

from repro.config import BERT_LARGE, Precision, training_point
from repro.experiments import optimized_stack
from repro.hw import mi100
from repro.ops.base import Region
from repro.profiler import profile_trace
from repro.trace import build_iteration_trace, build_pipeline, validate_trace


@pytest.fixture(scope="module")
def base_trace():
    return build_iteration_trace(BERT_LARGE,
                                 training_point(1, 32, Precision.FP32))


class TestAttentionFusionTransform:
    @pytest.fixture(scope="class")
    def fused(self, base_trace):
        return build_pipeline("fused_attention").run(base_trace)

    def test_two_fused_kernels_per_layer(self, fused):
        fused_kernels = [k for k in fused.kernels
                         if k.name.startswith("fused_attention.")]
        assert len(fused_kernels) == 2 * BERT_LARGE.num_layers
        per_layer = {(k.layer_index, k.phase) for k in fused_kernels}
        assert len(per_layer) == 2 * BERT_LARGE.num_layers

    def test_projections_untouched(self, base_trace, fused):
        def projections(trace):
            return [k for k in trace.gemms()
                    if k.region is Region.ATTENTION_LINEAR]
        assert len(projections(fused)) == len(projections(base_trace))

    def test_no_eager_attention_ops_remain(self, fused):
        leftovers = [k for k in fused.kernels
                     if k.region is Region.ATTENTION_SMDSM]
        assert not leftovers

    def test_traffic_reduced(self, base_trace, fused):
        def attention_bytes(trace):
            return sum(k.bytes_total for k in trace.kernels
                       if k.region in (Region.ATTENTION_BGEMM,
                                       Region.ATTENTION_SMDSM))
        assert attention_bytes(fused) < 0.4 * attention_bytes(base_trace)

    def test_faster(self, base_trace, fused):
        device = mi100()
        assert (profile_trace(fused.kernels, device).total_time
                < profile_trace(base_trace.kernels, device).total_time)

    def test_still_valid_trace(self, fused):
        # Phase ordering and layer attribution survive; the backward GEMM
        # FLOP ratio changes (recompute), so skip the training-ratio check.
        report = validate_trace(fused, training_iteration=False)
        assert report.ok, report.errors

    def test_composes_with_elementwise_fusion(self, base_trace):
        both = build_pipeline("fuse_elementwise,fused_attention").run(
            base_trace)
        assert len(both) < len(base_trace)


class TestOptimizedStack:
    @pytest.fixture(scope="class")
    def steps(self):
        return optimized_stack.run()

    def test_four_stages(self, steps):
        assert [s.name.startswith("+") for s in steps] == [False, True,
                                                           True, True]

    def test_monotone_improvement(self, steps):
        times = [s.iteration_s for s in steps]
        assert times == sorted(times, reverse=True)
        kernels = [s.kernels for s in steps]
        assert kernels[0] > kernels[1] > kernels[2] >= kernels[3]

    def test_compound_speedup_band(self, steps):
        final = steps[-1].speedup_vs(steps[0])
        assert 1.2 < final < 1.7

    def test_each_stage_contributes(self, steps):
        for before, after in zip(steps, steps[1:]):
            assert after.iteration_s < before.iteration_s * 0.999

    def test_render(self, steps):
        out = optimized_stack.render(steps)
        assert "cumulative speedup" in out and "baseline" in out

    def test_small_batch_gains_more_from_nmc(self):
        b4 = optimized_stack.run(
            training=training_point(1, 4, Precision.FP32))
        b32 = optimized_stack.run(
            training=training_point(1, 32, Precision.FP32))

        def nmc_gain(steps):
            return steps[2].iteration_s / steps[3].iteration_s
        assert nmc_gain(b4) > nmc_gain(b32)
