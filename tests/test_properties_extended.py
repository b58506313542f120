"""Second round of property-based tests across newer subsystems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.packing import first_fit_decreasing
from repro.distributed import LinkSpec, simulate_ring_allreduce
from repro.distributed.pipeline import pipeline_bubble_fraction
from repro.hw import default_energy_spec, kernel_energy, mi100
from repro.hw.microsim import simulate_kernel
from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.ops.elementwise import elementwise
from repro.ops.gemm import GemmShape
from tests.test_hw import achieved_bandwidth, one_row_time

DEVICE = mi100()


def _gemm_kernel(shape: GemmShape, dtype=DType.FP32) -> Kernel:
    return Kernel(name="g", op_class=OpClass.GEMM, phase=Phase.FORWARD,
                  component=Component.TRANSFORMER, region=Region.FC_GEMM,
                  flops=shape.flops, bytes_read=shape.bytes_read(dtype),
                  bytes_written=shape.bytes_written(dtype), dtype=dtype,
                  gemm=shape, n_elements=shape.m * shape.n * shape.batch)


class TestBackendAgreementProperties:
    @given(m=st.integers(16, 4096), n=st.integers(16, 4096),
           k=st.integers(16, 2048), batch=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_microsim_never_faster_than_analytical_by_much(self, m, n, k,
                                                           batch):
        """The wave simulation adds tail effects on top of the closed
        form; it may be slower but never meaningfully faster."""
        kernel = _gemm_kernel(GemmShape(m=m, n=n, k=k, batch=batch))
        analytical = one_row_time(kernel, DEVICE)
        simulated = simulate_kernel(kernel, DEVICE).time_s
        assert simulated > 0.5 * analytical

    @given(elements=st.integers(1024, 1 << 24))
    @settings(max_examples=30, deadline=None)
    def test_elementwise_backends_close(self, elements):
        kernel = elementwise("e", n_elements=elements, dtype=DType.FP32,
                             phase=Phase.FORWARD,
                             component=Component.TRANSFORMER,
                             region=Region.DR_RC_LN, inputs=2, outputs=1)
        analytical = one_row_time(kernel, DEVICE)
        simulated = simulate_kernel(kernel, DEVICE).time_s
        assert 0.5 < simulated / analytical < 2.0


class TestPackingProperties:
    @given(lengths=st.lists(st.integers(1, 100), min_size=1, max_size=80),
           capacity=st.integers(100, 300))
    @settings(max_examples=50)
    def test_every_item_placed_exactly_once_without_overflow(self, lengths,
                                                             capacity):
        bins = first_fit_decreasing(lengths, capacity)
        placed = sorted(i for b in bins for i in b)
        assert placed == list(range(len(lengths)))
        for b in bins:
            assert sum(lengths[i] for i in b) <= capacity

    @given(lengths=st.lists(st.integers(1, 50), min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_never_worse_than_one_bin_per_item(self, lengths):
        bins = first_fit_decreasing(lengths, 100)
        assert len(bins) <= len(lengths)
        # And never better than the volume bound.
        assert len(bins) >= -(-sum(lengths) // 100)


class TestEnergyProperties:
    spec = default_energy_spec()

    @given(elements=st.integers(1, 1 << 22),
           flops_per=st.floats(0.0, 16.0))
    @settings(max_examples=40)
    def test_energy_positive_and_monotone_in_size(self, elements,
                                                  flops_per):
        small = elementwise("e", n_elements=elements, dtype=DType.FP32,
                            phase=Phase.FORWARD,
                            component=Component.TRANSFORMER,
                            region=Region.DR_RC_LN,
                            flops_per_element=flops_per)
        large = elementwise("e", n_elements=2 * elements, dtype=DType.FP32,
                            phase=Phase.FORWARD,
                            component=Component.TRANSFORMER,
                            region=Region.DR_RC_LN,
                            flops_per_element=flops_per)
        assert 0 < kernel_energy(small, self.spec) < kernel_energy(
            large, self.spec)

    @given(elements=st.integers(1024, 1 << 22))
    @settings(max_examples=30)
    def test_nmc_pricing_never_more_expensive(self, elements):
        kernel = elementwise("e", n_elements=elements, dtype=DType.FP32,
                             phase=Phase.OPTIMIZER,
                             component=Component.OPTIMIZER,
                             region=Region.OPT_STAGE1)
        assert (kernel_energy(kernel, self.spec, nmc=True)
                <= kernel_energy(kernel, self.spec))


class TestDistributedProperties:
    link = LinkSpec(name="l", bandwidth_gbps=25.0, latency_us=3.0)

    @given(payload=st.integers(1 << 10, 1 << 28),
           devices=st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_ring_simulation_event_conservation(self, payload, devices):
        run = simulate_ring_allreduce(payload, devices, self.link)
        assert len(run.events) == 2 * (devices - 1) * devices
        # Events never travel backward in time.
        for event in run.events:
            assert event.end_s >= event.start_s >= 0.0

    @given(stages=st.integers(1, 16), micro=st.integers(1, 64))
    @settings(max_examples=50)
    def test_bubble_fraction_bounds(self, stages, micro):
        bubble = pipeline_bubble_fraction(stages, micro)
        assert 0.0 <= bubble < 1.0
        # More micro-batches never grow the bubble.
        assert bubble >= pipeline_bubble_fraction(stages, micro + 1)


class TestBandwidthModelProperties:
    @given(size=st.integers(1, 1 << 30))
    @settings(max_examples=50)
    def test_achieved_bandwidth_bounded_by_peak(self, size):
        for access in AccessPattern:
            achieved = achieved_bandwidth(DEVICE, access, size)
            assert 0 < achieved <= DEVICE.peak_bandwidth

    @given(size=st.integers(1, 1 << 28))
    @settings(max_examples=40)
    def test_achieved_bandwidth_monotone_in_size(self, size):
        small = achieved_bandwidth(DEVICE, AccessPattern.STREAMING, size)
        large = achieved_bandwidth(DEVICE, AccessPattern.STREAMING, 2 * size)
        assert large >= small
