"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BERT_TINY, BertConfig, TrainingConfig
from repro.distributed import LinkSpec, ring_allreduce_time
from repro.fusion import ElementwiseChainFusionPass
from repro.hw import gemm_time, mi100
from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.ops.elementwise import elementwise
from repro.ops.gemm import GemmShape
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.trace import PassContext
from repro.trace.kernel_table import KernelTable
from repro.trace.parameters import bert_parameter_inventory

dims = st.integers(min_value=1, max_value=4096)
small_dims = st.integers(min_value=1, max_value=64)


class TestGemmShapeProperties:
    @given(m=dims, n=dims, k=dims, batch=st.integers(1, 64))
    def test_flops_and_bytes_positive_and_consistent(self, m, n, k, batch):
        shape = GemmShape(m=m, n=n, k=k, batch=batch)
        assert shape.flops == 2 * m * n * k * batch
        assert shape.bytes_total(DType.FP32) == 4 * shape.elements()
        assert shape.arithmetic_intensity(DType.FP32) > 0

    @given(m=dims, n=dims, k=dims)
    def test_transpose_preserves_cost(self, m, n, k):
        shape = GemmShape(m=m, n=n, k=k)
        t = shape.transposed()
        assert t.flops == shape.flops
        assert t.bytes_total(DType.FP16) == shape.bytes_total(DType.FP16)

    @given(m=dims, n=dims, k=dims, batch=st.integers(1, 16))
    def test_efficiency_in_unit_interval(self, m, n, k, batch):
        eff = gemm_time(GemmShape(m=m, n=n, k=k, batch=batch), DType.FP32,
                        mi100()).efficiency
        assert 0.0 < eff <= 1.0

    @given(tiles_m=st.integers(1, 32), tiles_n=st.integers(1, 32),
           multiple=st.integers(1, 4), k=dims,
           dtype=st.sampled_from((DType.FP32, DType.FP16)))
    def test_aligned_efficiency_is_the_k_loop_closed_form(
            self, tiles_m, tiles_n, multiple, k, dtype):
        """No tile or wave is partial: only the K loop costs efficiency."""
        device = mi100()
        cus = device.compute_units
        # A multiple of the smallest batch that makes the 128x128 tile
        # count a whole number of waves.
        batch = cus // math.gcd(tiles_m * tiles_n, cus) * multiple
        shape = GemmShape(m=128 * tiles_m, n=128 * tiles_n, k=k, batch=batch)
        assert (shape.m // 128) * (shape.n // 128) * batch % cus == 0
        eff = gemm_time(shape, dtype, device).efficiency
        assert eff == k / (k + device.gemm_k_half)

    @given(m=dims, n=dims, k=dims)
    def test_intensity_below_smallest_dim(self, m, n, k):
        # ops/byte of a GEMM is bounded by min(m, n, k) / 2 elements: exact
        # bound is mnk/(mk+kn+mn) <= min/3 per element -> *2flops /4bytes.
        shape = GemmShape(m=m, n=n, k=k)
        bound = min(m, n, k) * 2 / 4  # FLOPs per FP32 byte upper bound
        assert shape.arithmetic_intensity(DType.FP32) <= bound + 1e-9


class TestCollectiveProperties:
    link = LinkSpec(name="p", bandwidth_gbps=20.0, latency_us=2.0)

    @given(payload=st.integers(1, 1 << 32), devices=st.integers(2, 512))
    def test_allreduce_positive_and_latency_bounded(self, payload, devices):
        t = ring_allreduce_time(payload, devices, self.link)
        assert t >= 2 * (devices - 1) * self.link.latency_s

    @given(payload=st.integers(1, 1 << 30), devices=st.integers(2, 128))
    def test_allreduce_monotone_in_payload(self, payload, devices):
        t1 = ring_allreduce_time(payload, devices, self.link)
        t2 = ring_allreduce_time(2 * payload, devices, self.link)
        assert t2 > t1


class TestFusionProperties:
    @given(steps=st.integers(2, 10),
           n_elements=st.integers(1024, 1 << 22))
    @settings(max_examples=30)
    def test_fusion_conserves_flops_and_reduces_traffic(self, steps,
                                                        n_elements):
        chain = [elementwise(f"s{i}", n_elements=n_elements,
                             dtype=DType.FP32, phase=Phase.FORWARD,
                             component=Component.TRANSFORMER,
                             region=Region.FC_GELU, inputs=1, outputs=1,
                             flops_per_element=1.0, fusion_group="g")
                 for i in range(steps)]
        table = ElementwiseChainFusionPass().apply(
            KernelTable.from_kernels(chain),
            PassContext(BERT_TINY, TrainingConfig()))
        assert len(table) == 1
        fused = table.kernel(0)
        assert fused.flops == sum(k.flops for k in chain)
        assert fused.bytes_total < sum(k.bytes_total for k in chain)
        # A pure chain collapses to one read + one write.
        assert fused.bytes_total == 2 * n_elements * 4


class TestAutogradProperties:
    @given(rows=st.integers(1, 8), cols=st.integers(2, 16),
           seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_softmax_rows_always_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(scale=10.0, size=(rows, cols)))
        out = F.softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows),
                                   rtol=1e-5)
        assert (out >= 0).all()

    @given(n=st.integers(1, 32), seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_add_gradient_is_ones(self, n, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=n), requires_grad=True)
        b = Tensor(rng.normal(size=n), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(n))
        np.testing.assert_allclose(b.grad, np.ones(n))

    @given(m=st.integers(1, 8), k=st.integers(1, 8), n=st.integers(1, 8),
           seed=st.integers(0, 100))
    @settings(max_examples=30)
    def test_matmul_gradient_shapes(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        a.matmul(b).sum().backward()
        assert a.grad.shape == (m, k)
        assert b.grad.shape == (k, n)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_gelu_between_zero_and_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=50)
        out = F.gelu(Tensor(x)).data
        positive = x > 0
        assert (out[positive] <= x[positive] + 1e-9).all()
        assert (out[positive] >= 0).all()
        assert (np.abs(out[~positive]) <= np.abs(x[~positive]) + 1e-9).all()


class TestConfigProperties:
    @given(layers=st.integers(1, 48), heads=st.sampled_from([1, 2, 4, 8]),
           mult=st.integers(1, 8))
    @settings(max_examples=30)
    def test_parameter_inventory_matches_formula(self, layers, heads, mult):
        d = heads * 8 * mult
        config = BertConfig(num_layers=layers, d_model=d, num_heads=heads,
                            d_ff=4 * d, vocab_size=128, max_position=64)
        inventory_total = sum(t.n_elements
                              for t in bert_parameter_inventory(config))
        assert inventory_total == config.total_parameters()

    @given(batch=st.integers(1, 64), seq=st.sampled_from([16, 128, 512]))
    def test_tokens_per_iteration(self, batch, seq):
        t = TrainingConfig(batch_size=batch, seq_len=seq)
        assert t.tokens_per_iteration == batch * seq


class TestTraceProperties:
    @given(batch=st.sampled_from([1, 2, 4]), seq=st.sampled_from([16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_iteration_trace_invariants(self, batch, seq):
        from repro.trace import build_iteration_trace
        trace = build_iteration_trace(
            BERT_TINY, TrainingConfig(batch_size=batch, seq_len=seq))
        assert trace.total_flops > 0
        for kernel in trace.kernels:
            assert kernel.bytes_total > 0 or kernel.flops >= 0
            if kernel.op_class.is_gemm:
                assert kernel.gemm is not None
                assert kernel.flops == kernel.gemm.flops


costs = st.integers(min_value=0, max_value=1 << 40)


@st.composite
def kernels(draw) -> Kernel:
    """One GEMM or non-GEMM kernel, drawing from small pools of names and
    fusion groups so tables repeat pooled values."""
    gemm = draw(st.one_of(st.none(), st.builds(
        GemmShape, m=small_dims, n=small_dims, k=small_dims,
        batch=st.integers(1, 4), transpose_a=st.booleans(),
        transpose_b=st.booleans(), accumulate=st.booleans())))
    gemm_classes = [op for op in OpClass if op.is_gemm]
    op_class = draw(st.sampled_from(
        gemm_classes if gemm is not None
        else [op for op in OpClass if op not in gemm_classes]))
    return Kernel(
        name=draw(st.sampled_from(["a", "b", "c"])), op_class=op_class,
        phase=draw(st.sampled_from(Phase)),
        component=draw(st.sampled_from(Component)),
        region=draw(st.sampled_from(Region)),
        flops=draw(costs), bytes_read=draw(costs),
        bytes_written=draw(costs), dtype=draw(st.sampled_from(DType)),
        access=draw(st.sampled_from(AccessPattern)),
        layer_index=draw(st.one_of(st.none(), st.integers(0, 47))),
        gemm=gemm,
        fusion_group=draw(st.one_of(st.none(), st.sampled_from(["g", "h"]))),
        n_elements=draw(costs))


class TestKernelTableProperties:
    @given(ks=st.lists(kernels(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_from_kernels_round_trips(self, ks):
        assert KernelTable.from_kernels(ks).to_kernels() == list(ks)
