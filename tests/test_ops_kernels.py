"""Tests for elementwise/reduction kernel constructors and Kernel records."""

import pytest

from repro.ops.base import (Component, DType, Kernel, OpClass, Phase,
                            Region)
from repro.ops.elementwise import (GELU_BACKWARD_STEPS, GELU_FORWARD_STEPS,
                                   dropout_backward, dropout_forward,
                                   elementwise, gelu_kernels, residual_add)
from repro.ops.reduction import (LAYERNORM_UNFUSED_FORWARD_STEPS,
                                 layernorm_kernels, reduction,
                                 softmax_kernels)
from repro.optim import optimizer_kernels
from repro.trace.parameters import ParamTensor


def _make_kernel(**overrides) -> Kernel:
    defaults = dict(name="k", op_class=OpClass.ELEMENTWISE,
                    phase=Phase.FORWARD, component=Component.TRANSFORMER,
                    region=Region.DR_RC_LN, flops=10, bytes_read=100,
                    bytes_written=50)
    defaults.update(overrides)
    return Kernel(**defaults)


class TestKernelRecord:
    def test_bytes_total_and_intensity(self):
        k = _make_kernel(flops=300, bytes_read=100, bytes_written=50)
        assert k.bytes_total == 150
        assert k.arithmetic_intensity == pytest.approx(2.0)

    def test_zero_bytes_intensity_is_zero(self):
        k = _make_kernel(flops=10, bytes_read=0, bytes_written=0)
        assert k.arithmetic_intensity == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            _make_kernel(flops=-1)

    def test_with_layer_and_renamed_are_copies(self):
        k = _make_kernel()
        k2 = k.with_layer(3)
        assert k2.layer_index == 3 and k.layer_index is None
        k3 = k.renamed("other")
        assert k3.name == "other" and k.name == "k"

    def test_op_class_is_gemm(self):
        assert OpClass.GEMM.is_gemm and OpClass.BATCHED_GEMM.is_gemm
        assert not OpClass.ELEMENTWISE.is_gemm

    def test_region_category_properties(self):
        assert Region.ATTENTION_BGEMM.is_attention
        assert Region.FC_GELU.is_fc
        assert Region.OPT_STAGE1.is_optimizer
        assert not Region.DR_RC_LN.is_attention


class TestElementwise:
    def test_byte_accounting(self):
        k = elementwise("add", n_elements=1000, dtype=DType.FP32,
                        phase=Phase.FORWARD, component=Component.TRANSFORMER,
                        region=Region.DR_RC_LN, inputs=2, outputs=1)
        assert k.bytes_read == 2 * 1000 * 4
        assert k.bytes_written == 1000 * 4
        assert k.n_elements == 1000

    def test_extra_bytes(self):
        k = elementwise("masked", n_elements=10, dtype=DType.FP16,
                        phase=Phase.FORWARD, component=Component.TRANSFORMER,
                        region=Region.ATTENTION_SMDSM, extra_read_bytes=7,
                        extra_write_bytes=3)
        assert k.bytes_read == 10 * 2 + 7
        assert k.bytes_written == 10 * 2 + 3

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            elementwise("bad", n_elements=0, dtype=DType.FP32,
                        phase=Phase.FORWARD,
                        component=Component.TRANSFORMER,
                        region=Region.DR_RC_LN)

    def test_dropout_saves_and_reuses_mask(self):
        fwd, = dropout_forward("dr", n_elements=100, dtype=DType.FP32,
                               component=Component.TRANSFORMER,
                               region=Region.DR_RC_LN)
        bwd, = dropout_backward("dr", n_elements=100, dtype=DType.FP32,
                                component=Component.TRANSFORMER,
                                region=Region.DR_RC_LN)
        # 1-byte mask written forward, read backward.
        assert fwd.bytes_written == 100 * 4 + 100
        assert bwd.bytes_read == 100 * 4 + 100

    def test_residual_add_reads_two_tensors(self):
        k = residual_add("rc", n_elements=10, dtype=DType.FP32,
                         phase=Phase.FORWARD,
                         component=Component.TRANSFORMER)
        assert k.bytes_read == 2 * 40
        assert k.region is Region.DR_RC_LN


class TestGelu:
    def test_unfused_step_counts(self):
        fwd = gelu_kernels(n_elements=100, dtype=DType.FP32,
                           phase=Phase.FORWARD)
        bwd = gelu_kernels(n_elements=100, dtype=DType.FP32,
                           phase=Phase.BACKWARD)
        assert len(fwd) == len(GELU_FORWARD_STEPS)
        assert len(bwd) == len(GELU_BACKWARD_STEPS)

    def test_each_step_streams_the_tensor(self):
        for k in gelu_kernels(n_elements=100, dtype=DType.FP16,
                              phase=Phase.FORWARD):
            assert k.bytes_written >= 100 * 2
            assert k.region is Region.FC_GELU
            assert k.op_class is OpClass.ELEMENTWISE

    def test_component_override_for_output_head(self):
        kernels = gelu_kernels(n_elements=10, dtype=DType.FP32,
                               phase=Phase.FORWARD,
                               component=Component.OUTPUT,
                               region=Region.OUTPUT)
        assert all(k.component is Component.OUTPUT for k in kernels)


class TestReductions:
    def test_softmax_single_kernel_per_direction(self):
        fwd = softmax_kernels(rows=64, row_len=128, dtype=DType.FP32,
                              phase=Phase.FORWARD)
        bwd = softmax_kernels(rows=64, row_len=128, dtype=DType.FP32,
                              phase=Phase.BACKWARD)
        assert len(fwd) == 1 and len(bwd) == 1
        assert fwd[0].op_class is OpClass.REDUCTION
        # Backward reads output + upstream gradient.
        assert bwd[0].bytes_read == 2 * 64 * 128 * 4

    def test_layernorm_fused_kernel_counts(self):
        fwd = layernorm_kernels(rows=8, row_len=16, dtype=DType.FP32,
                                phase=Phase.FORWARD, fused=True)
        bwd = layernorm_kernels(rows=8, row_len=16, dtype=DType.FP32,
                                phase=Phase.BACKWARD, fused=True)
        assert len(fwd) == 1 and len(bwd) == 2

    def test_layernorm_unfused_is_eager_decomposition(self):
        fwd = layernorm_kernels(rows=8, row_len=16, dtype=DType.FP32,
                                phase=Phase.FORWARD, fused=False)
        assert len(fwd) == len(LAYERNORM_UNFUSED_FORWARD_STEPS)
        bwd = layernorm_kernels(rows=8, row_len=16, dtype=DType.FP32,
                                phase=Phase.BACKWARD, fused=False)
        assert len(bwd) > len(fwd)

    def test_unfused_layernorm_moves_more_bytes(self):
        def traffic(fused):
            kernels = layernorm_kernels(rows=128, row_len=1024,
                                        dtype=DType.FP32,
                                        phase=Phase.FORWARD, fused=fused)
            return sum(k.bytes_total for k in kernels)
        assert traffic(fused=False) > 4 * traffic(fused=True)

    def test_global_l2_norm_reads_everything_once(self):
        # LAMB's first row: the L2 norm over every gradient.
        inventory = [ParamTensor("p", (1000,), Component.TRANSFORMER)]
        k = optimizer_kernels("lamb", inventory).kernel(0)
        assert k.bytes_read == 4000
        assert k.phase is Phase.OPTIMIZER
        assert k.region is Region.OPT_NORM

    def test_reduction_rejects_empty(self):
        with pytest.raises(ValueError):
            reduction("r", n_elements=0, dtype=DType.FP32,
                      phase=Phase.FORWARD, component=Component.TRANSFORMER,
                      region=Region.DR_RC_LN)

    def test_intensity_of_memory_bound_ops_below_one(self):
        # Sec. 3.2.3: DR/RC kernels have arithmetic intensity < 1.
        k = residual_add("rc", n_elements=10_000, dtype=DType.FP32,
                         phase=Phase.FORWARD,
                         component=Component.TRANSFORMER)
        assert k.arithmetic_intensity < 1.0
