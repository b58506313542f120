"""Tests for trace generation: parameter inventory, the trace container,
full iteration."""

import pytest

from repro.config import (BERT_LARGE, BERT_TINY, Precision, TrainingConfig,
                          training_point)
from repro.ops.base import Component, DType, OpClass, Phase, Region
from repro.trace.bert_trace import (build_iteration_trace,
                                    transformer_layer_backward_kernels,
                                    transformer_layer_forward_kernels)
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.parameters import (bert_parameter_inventory, group_by_layer,
                                    total_parameters)


class TestParameterInventory:
    def test_totals_match_config_formula(self):
        for config in (BERT_TINY, BERT_LARGE):
            assert total_parameters(config) == config.total_parameters()

    def test_tensor_count_per_layer(self):
        inventory = bert_parameter_inventory(BERT_LARGE)
        layer0 = [t for t in inventory if t.layer_index == 0]
        # 4 projections x (w, b) + 2 LN x (gain, bias) + 2 FC x (w, b).
        assert len(layer0) == 16

    def test_group_by_layer_covers_everything(self):
        inventory = bert_parameter_inventory(BERT_LARGE)
        groups = group_by_layer(inventory)
        assert len(groups) == BERT_LARGE.num_layers + 2  # + embed + output
        grouped = sum(len(v) for v in groups.values())
        assert grouped == len(inventory)

    def test_shapes_are_consistent(self):
        for tensor in bert_parameter_inventory(BERT_TINY):
            assert tensor.n_elements > 0
            assert tensor.bytes(4) == tensor.n_elements * 4


class TestTraceBuilder:
    def test_select_filters_compose(self):
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2, seq_len=16))
        picked = trace.select(phase=Phase.FORWARD,
                              component=Component.TRANSFORMER,
                              layer_index=1, op_class=OpClass.GEMM)
        assert picked
        for k in picked:
            assert k.phase is Phase.FORWARD and k.layer_index == 1
            assert k.op_class is OpClass.GEMM

    def test_predicate_filter(self):
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2, seq_len=16))
        gelus = trace.select(predicate=lambda k: "gelu" in k.name)
        assert all("gelu" in k.name for k in gelus) and gelus

    def test_replaced_preserves_configs(self):
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2, seq_len=16))
        other = Trace(trace.model, trace.training,
                      KernelTable.from_kernels(trace.kernels[:3]))
        assert len(other) == 3 and other.model is trace.model


class TestIterationTrace:
    @pytest.fixture(scope="class")
    def trace(self) -> Trace:
        return build_iteration_trace(BERT_LARGE,
                                     training_point(1, 32, Precision.FP32))

    def test_every_component_present(self, trace):
        for component in (Component.EMBEDDING, Component.TRANSFORMER,
                          Component.OUTPUT, Component.OPTIMIZER):
            assert trace.select(component=component)

    def test_gemm_count_per_layer(self, trace):
        layer_gemms = [k for k in trace.gemms() if k.layer_index == 0]
        # FWD: 4 linear + 2 FC + 2 batched; BWD: 2 per linear/FC (12) + 4.
        assert len(layer_gemms) == 8 + 16

    def test_backward_flops_twice_forward(self, trace):
        fwd = sum(k.flops for k in trace.select(
            phase=Phase.FORWARD, component=Component.TRANSFORMER))
        bwd = sum(k.flops for k in trace.select(
            phase=Phase.BACKWARD, component=Component.TRANSFORMER))
        assert bwd == pytest.approx(2 * fwd, rel=0.05)

    def test_total_gemm_flops_formula(self, trace):
        # Per layer FWD: 4 linear (2*T*d*d) + FC (2*2*T*d*dff) + attention
        # batched (2 * 2*B*h*n^2*d_h); x3 with backward.
        d, dff = BERT_LARGE.d_model, BERT_LARGE.d_ff
        T, n = 4096, 128
        B, h, dh = 32, 16, 64
        per_layer_fwd = (4 * 2 * T * d * d + 2 * (2 * T * d * dff)
                         + 2 * (2 * B * h * n * n * dh))
        expected_encoder = 3 * per_layer_fwd * BERT_LARGE.num_layers
        encoder_gemm_flops = sum(
            k.flops for k in trace.gemms()
            if k.component is Component.TRANSFORMER)
        assert encoder_gemm_flops == expected_encoder

    def test_layers_attributed(self, trace):
        layers = {k.layer_index for k in trace.kernels
                  if k.component is Component.TRANSFORMER}
        assert layers == set(range(BERT_LARGE.num_layers))

    def test_optimizer_follows_backward(self, trace):
        phases = [k.phase for k in trace.kernels]
        last_backward = max(i for i, p in enumerate(phases)
                            if p is Phase.BACKWARD)
        first_opt = min(i for i, p in enumerate(phases)
                        if p is Phase.OPTIMIZER)
        assert first_opt > last_backward

    def test_mixed_precision_dtypes(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.MIXED))
        for k in trace.select(component=Component.TRANSFORMER):
            assert k.dtype is DType.FP16
        for k in trace.select(component=Component.OPTIMIZER):
            assert k.dtype is DType.FP32  # updates stay FP32 (Sec. 2.4)

    def test_mixed_precision_halves_transformer_traffic(self):
        fp32 = build_iteration_trace(BERT_LARGE,
                                     training_point(1, 32, Precision.FP32))
        mp = build_iteration_trace(BERT_LARGE,
                                   training_point(1, 32, Precision.MIXED))
        bytes32 = sum(k.bytes_total for k in
                      fp32.select(component=Component.TRANSFORMER))
        bytes16 = sum(k.bytes_total for k in
                      mp.select(component=Component.TRANSFORMER))
        # Not exactly half: dropout masks stay 1 byte/element.
        assert 0.45 < bytes16 / bytes32 < 0.62

    def test_batch_one_still_matrix_ops(self):
        # Takeaway 5.
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 1, Precision.FP32))
        encoder = [k for k in trace.gemms()
                   if k.component is Component.TRANSFORMER]
        assert min(min(k.gemm.m, k.gemm.n, k.gemm.k) for k in encoder) >= 64

    def test_kernel_count_scale_invariant_to_batch(self):
        # Same iteration structure regardless of B (Sec. 3.1.4).
        small = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 4, Precision.FP32))
        large = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.FP32))
        assert len(small) == len(large)

    def test_regions_cover_all_transformer_kernels(self, trace):
        for k in trace.select(component=Component.TRANSFORMER):
            assert k.region in (Region.ATTENTION_LINEAR,
                                Region.ATTENTION_BGEMM,
                                Region.ATTENTION_SMDSM, Region.FC_GEMM,
                                Region.FC_GELU, Region.DR_RC_LN)

    def test_layer_forward_backward_symmetry(self):
        training = training_point(1, 32, Precision.FP32)
        fwd = transformer_layer_forward_kernels(BERT_LARGE, training)
        bwd = transformer_layer_backward_kernels(BERT_LARGE, training)
        fwd_gemms = [k for k in fwd if k.op_class.is_gemm]
        bwd_gemms = [k for k in bwd if k.op_class.is_gemm]
        assert len(bwd_gemms) == 2 * len(fwd_gemms)
