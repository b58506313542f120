"""Tests for kernel fusion passes and GEMM fusion (Sec. 6.1)."""

import pytest

from repro.config import BERT_LARGE, Precision, training_point
from repro.fusion import (fuse_chain, fused_qkv_shapes, fusion_impact,
                          qkv_fusion_comparison)
from repro.hw import mi100
from repro.ops.base import Component, DType, Phase
from repro.ops.elementwise import gelu_kernels
from repro.trace import build_iteration_trace, build_pipeline


@pytest.fixture(scope="module")
def device():
    return mi100()


class TestChainFusion:
    @pytest.fixture
    def gelu_chain(self):
        return gelu_kernels(n_elements=1 << 20, dtype=DType.FP32,
                            phase=Phase.FORWARD, fusion_group="g")

    def test_flops_conserved(self, gelu_chain):
        fused = fuse_chain(gelu_chain)
        assert fused.flops == sum(k.flops for k in gelu_chain)

    def test_intermediate_traffic_removed(self, gelu_chain):
        fused = fuse_chain(gelu_chain)
        handoffs = (len(gelu_chain) - 1) * (1 << 20) * 4
        assert fused.bytes_written == (sum(k.bytes_written
                                           for k in gelu_chain) - handoffs)
        assert fused.bytes_read == (sum(k.bytes_read for k in gelu_chain)
                                    - handoffs)

    def test_side_inputs_preserved(self, gelu_chain):
        # The final multiply's second operand (x itself) must survive.
        fused = fuse_chain(gelu_chain)
        assert fused.bytes_read >= 2 * (1 << 20) * 4

    def test_single_kernel_passthrough(self, gelu_chain):
        assert fuse_chain(gelu_chain[:1]) is gelu_chain[0]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            fuse_chain([])

    def test_trace_level_fusion_reduces_kernels_not_flops(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        fused = build_pipeline("fuse_elementwise").run(trace)
        assert len(fused) < 0.75 * len(trace)
        assert fused.total_flops == trace.total_flops
        assert fused.total_bytes < trace.total_bytes

    def test_gemms_never_fused(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        fused = build_pipeline("fuse_elementwise").run(trace)
        assert len(fused.gemms()) == len(trace.gemms())

    def test_fusion_respects_layer_boundaries(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        fused = build_pipeline("fuse_elementwise").run(trace)
        for k in fused.kernels:
            if k.name.startswith("fused."):
                assert k.layer_index is not None or k.component in (
                    Component.OUTPUT, Component.EMBEDDING,
                    Component.OPTIMIZER)

    def test_fused_trace_is_faster(self, device):
        from repro.profiler import profile_trace
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        fused = build_pipeline("fuse_elementwise").run(trace)
        assert (profile_trace(fused.kernels, device).total_time
                < profile_trace(trace.kernels, device).total_time)

    def test_fusion_impact_ratios(self, device):
        chain = gelu_kernels(n_elements=1 << 22, dtype=DType.FP32,
                             phase=Phase.FORWARD, fusion_group="g")
        impact = fusion_impact(chain, [fuse_chain(chain)], device)
        assert impact.kernel_ratio == len(chain)
        assert impact.bytes_ratio > 2.0
        assert impact.time_ratio > 2.0


class TestQkvGemmFusion:
    def test_fused_shape_concatenates_outputs(self):
        shapes = fused_qkv_shapes(1024, 4096)
        assert shapes["fwd"].m == 3 * 1024
        assert shapes["fwd"].flops == 3 * 2 * 1024 * 4096 * 1024

    def test_fusion_always_helps(self, device):
        for tokens in (256, 1024, 4096):
            result = qkv_fusion_comparison(1024, tokens, device)
            assert result.speedup > 1.0

    def test_gain_larger_for_small_inputs(self, device):
        # Fig. 12b: "impact is higher when the input matrices are small".
        small = qkv_fusion_comparison(1024, 512, device)
        large = qkv_fusion_comparison(1024, 16384, device)
        assert small.improvement > large.improvement

    def test_backward_weight_pass_supported(self, device):
        result = qkv_fusion_comparison(1024, 2048, device,
                                       pass_name="bwd_wt")
        assert result.speedup > 1.0
        assert result.pass_name == "bwd_wt"

    def test_peak_improvement_in_paper_neighborhood(self, device):
        # Paper: up to ~62% improvement; our model peaks between 30% and
        # ~130% across the sweep (the 62% point depends on exact shapes).
        from repro.fusion import fusion_sweep
        results = fusion_sweep(1024, [256, 512, 1024, 4096, 16384], device)
        best = max(r.improvement for r in results)
        assert 0.4 < best < 1.5
