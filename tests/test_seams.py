"""Behavioral tests on less-traveled seams of the public API."""

import numpy as np
import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, TrainingConfig, training_point
from repro.distributed import (PCIE4, XGMI, data_parallel_timeline,
                               hybrid_timeline, single_device_timeline,
                               tensor_slicing_timeline)
from repro.hw import kernel_time, mi100, simulate_kernel
from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.optim import lamb_kernels, sgd_kernels
from repro.tensor.module import Linear, Module, Parameter
from repro.tensor.tensor import Tensor
from repro.trace import bert_parameter_inventory


class TestTensorSeams:
    def test_rsub_and_rdiv(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        (10.0 - x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])
        x.zero_grad()
        (8.0 / x).sum().backward()
        np.testing.assert_allclose(x.grad, [-2.0, -0.5])

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            x ** Tensor(np.ones(2))

    def test_item_and_repr(self):
        t = Tensor(np.array([3.5]), requires_grad=True, name="scalar")
        assert t.item() == 3.5
        text = repr(t)
        assert "requires_grad=True" in text and "scalar" in text

    def test_matmul_coerces_arrays(self):
        x = Tensor(np.eye(2), requires_grad=True)
        out = x.matmul(Tensor(np.ones((2, 2))))
        assert out.shape == (2, 2)

    def test_numpy_view_not_copy(self):
        t = Tensor(np.zeros(3))
        t.numpy()[0] = 5.0
        assert t.data[0] == 5.0


class TestModuleSeams:
    def test_nested_module_parameter_count(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.inner = Linear(2, 3, rng=rng)
                self.extra = Parameter(np.zeros(5))

        outer = Outer()
        assert outer.num_parameters() == (3 * 2 + 3) + 5
        names = [n for n, _ in outer.named_parameters()]
        assert "inner.weight" in names and "extra" in names

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestConfigSeams:
    def test_output_head_parameter_formula(self):
        d, v = BERT_TINY.d_model, BERT_TINY.vocab_size
        expected = (d * d + d + 2 * d) + v + (d * d + d) + (2 * d + 2)
        assert BERT_TINY.output_head_parameters() == expected

    def test_embedding_parameter_formula(self):
        c = BERT_TINY
        expected = (c.vocab_size + c.max_position + c.type_vocab_size) \
            * c.d_model + 2 * c.d_model
        assert c.embedding_parameters() == expected


class TestOptimizerKernelSeams:
    def test_sgd_unfused_kernel_count(self):
        inventory = bert_parameter_inventory(BERT_TINY)
        kernels = sgd_kernels(inventory, fused=False)
        assert len(kernels) == 4 * len(inventory)

    def test_lamb_unfused_has_per_tensor_norms(self):
        inventory = bert_parameter_inventory(BERT_TINY)
        kernels = lamb_kernels(inventory, fused=False)
        norms = [k for k in kernels if "norm_param" in k.name
                 or "norm_update" in k.name]
        assert len(norms) == 2 * len(inventory)


class TestTimingSeams:
    def test_irregular_access_slower_than_streaming(self):
        device = mi100()

        def build(access):
            return Kernel(name="k", op_class=OpClass.GATHER_SCATTER
                          if access is AccessPattern.IRREGULAR
                          else OpClass.ELEMENTWISE,
                          phase=Phase.FORWARD,
                          component=Component.EMBEDDING,
                          region=Region.EMBEDDING, flops=0,
                          bytes_read=1 << 26, bytes_written=1 << 26,
                          dtype=DType.FP32, access=access,
                          n_elements=1 << 24)
        fast = kernel_time(build(AccessPattern.STREAMING), device)
        slow = kernel_time(build(AccessPattern.IRREGULAR), device)
        assert slow > 2 * fast
        # The event backend respects the same ordering.
        assert (simulate_kernel(build(AccessPattern.IRREGULAR),
                                device).time_s
                > simulate_kernel(build(AccessPattern.STREAMING),
                                  device).time_s)


class TestTimelineSeams:
    device = mi100()
    b8 = training_point(1, 8, Precision.FP32)

    def test_default_labels(self):
        dp = data_parallel_timeline(BERT_LARGE, self.b8, self.device,
                                    PCIE4, 4)
        assert "DP x4" in dp.label and "w/ overlap" in dp.label
        ts = tensor_slicing_timeline(BERT_LARGE, self.b8, self.device,
                                     PCIE4, 2)
        assert ts.label.startswith("TS 2-way")
        single = single_device_timeline(BERT_LARGE, self.b8, self.device)
        assert "single" in single.label

    def test_unknown_bucket_fraction_is_zero(self):
        single = single_device_timeline(BERT_LARGE, self.b8, self.device)
        assert single.fraction("pipeline_bubble") == 0.0

    def test_full_overlap_hybrid_adds_no_dp_cost(self):
        base = tensor_slicing_timeline(BERT_LARGE, self.b8, self.device,
                                       XGMI, 2)
        hybrid = hybrid_timeline(BERT_LARGE, self.b8, self.device,
                                 ts_link=XGMI, dp_link=PCIE4, ts_ways=2,
                                 dp_replicas=8, overlap_fraction=1.0)
        assert hybrid.total == pytest.approx(base.total)

    def test_dp_single_device_equals_single(self):
        single = single_device_timeline(BERT_LARGE, self.b8, self.device)
        dp1 = data_parallel_timeline(BERT_LARGE, self.b8, self.device,
                                     PCIE4, 1)
        assert dp1.total == pytest.approx(single.total)


class TestReportSeams:
    def test_format_table_custom_float_format(self):
        from repro.report import format_table
        out = format_table(("x",), [(1 / 3,)], float_format="{:.4f}")
        assert "0.3333" in out

    def test_stacked_bar_cycles_fills(self):
        from repro.report import stacked_bar
        segments = [(f"s{i}", 0.1) for i in range(10)]
        out = stacked_bar(segments)
        # Ten legend entries rendered even though fills repeat.
        assert out.count("%") == 10


class TestCharacterizeTransforms:
    def test_optimized_characterization_is_faster(self):
        from repro.core import characterize
        from repro.trace import build_pipeline
        base = characterize(BERT_TINY,
                            TrainingConfig(batch_size=2, seq_len=16))
        optimized = characterize(
            BERT_TINY, TrainingConfig(batch_size=2, seq_len=16),
            passes=build_pipeline("fuse_elementwise,fused_attention"))
        assert optimized.iteration_s < base.iteration_s
        assert len(optimized.trace) < len(base.trace)

    def test_windowed_transform_replaces_attention_ops(self):
        from repro.trace import build_iteration_trace, build_pipeline
        trace = build_iteration_trace(
            BERT_LARGE, training_point(2, 4, Precision.FP32))
        # block=64 with the default window_blocks=3.
        windowed = build_pipeline("windowed_attention:64").run(trace)
        names = {k.name for k in windowed.kernels}
        assert any(n.startswith("windowed.") for n in names)
        assert not any(n.startswith("attention.score") for n in names)
        # Linear projections survive untouched.
        assert any("linear_q" in n for n in names)

    def test_windowed_trace_cheaper_at_long_sequences(self):
        from repro.hw import mi100
        from repro.profiler import profile_trace
        from repro.trace import build_iteration_trace, build_pipeline
        trace = build_iteration_trace(
            BERT_LARGE, training_point(2, 4, Precision.FP32))
        windowed = build_pipeline("windowed_attention").run(trace)
        device = mi100()
        assert (profile_trace(windowed.kernels, device).total_time
                < profile_trace(trace.kernels, device).total_time)
