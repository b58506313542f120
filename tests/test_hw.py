"""Tests for the device model: roofline, GEMM timing, bandwidth curves."""

import pytest

from repro.hw.device import (DeviceModel, GemmEngineSpec,
                             balanced_accelerator, mi100)
from repro.hw.gemm_model import gemm_time
from repro.hw.roofline import attainable, classify_kernels, place, ridge_point
from repro.hw.timing import kernel_times, trace_time
from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region)
from repro.ops.gemm import GemmShape
from repro.ops.intensity import Boundedness, IntensityRecord
from repro.trace.kernel_table import KernelTable


@pytest.fixture
def device():
    return mi100()


def one_row_time(kernel: Kernel, device: DeviceModel) -> float:
    """One kernel's time: ``kernel_times`` on a one-row table."""
    return float(kernel_times(KernelTable.from_kernels([kernel]), device)[0])


def streamed_kernel(access: AccessPattern, n_bytes: int) -> Kernel:
    """A zero-FLOP kernel that reads ``n_bytes`` with ``access``."""
    return Kernel(name="stream", op_class=OpClass.ELEMENTWISE,
                  phase=Phase.FORWARD, component=Component.TRANSFORMER,
                  region=Region.DR_RC_LN, flops=0, bytes_read=n_bytes,
                  bytes_written=0, access=access)


def ramp_time(device: DeviceModel, access: AccessPattern,
              n_bytes: int) -> float:
    """Closed form of a zero-FLOP kernel's time: the access pattern's
    bandwidth ceiling derated by the occupancy ramp, plus launch."""
    ramp = n_bytes / (n_bytes + device.bw_saturation_bytes)
    return (n_bytes / (device.mem_efficiency[access] * device.peak_bandwidth
                       * ramp)
            + device.kernel_launch_overhead_s)


def achieved_bandwidth(device: DeviceModel, access: AccessPattern,
                       n_bytes: int) -> float:
    """Bytes/s a zero-FLOP kernel sustains, launch overhead excluded."""
    time_s = one_row_time(streamed_kernel(access, n_bytes), device)
    assert time_s == pytest.approx(ramp_time(device, access, n_bytes),
                                   rel=1e-12)
    return n_bytes / (time_s - device.kernel_launch_overhead_s)


class TestDeviceModel:
    def test_mi100_published_numbers(self, device):
        assert device.mem_bandwidth_gbps == pytest.approx(1228.8)
        assert device.compute_units == 120
        assert device.gemm_engines[DType.FP16].peak_tflops == pytest.approx(184.6)

    def test_machine_balance_orders_by_dtype(self, device):
        # FP16 GEMMs need far more intensity to be compute-bound.
        assert (device.machine_balance(DType.FP16)
                > device.machine_balance(DType.FP32))

    def test_achieved_bandwidth_saturates(self, device):
        small = achieved_bandwidth(device, AccessPattern.STREAMING, 1024)
        large = achieved_bandwidth(device, AccessPattern.STREAMING, 1 << 30)
        assert small < large <= device.peak_bandwidth

    def test_access_pattern_ordering(self, device):
        size = 1 << 26
        streaming = achieved_bandwidth(device, AccessPattern.STREAMING, size)
        irregular = achieved_bandwidth(device, AccessPattern.IRREGULAR, size)
        assert irregular < streaming

    def test_unknown_dtype_falls_back_to_fp32(self, device):
        assert device.gemm_engine(DType.FP64) is device.gemm_engines[DType.FP32]

    def test_with_overrides_is_a_copy(self, device):
        faster = device.with_overrides(mem_bandwidth_gbps=2000.0)
        assert faster.mem_bandwidth_gbps == 2000.0
        assert device.mem_bandwidth_gbps == pytest.approx(1228.8)

    def test_invalid_device_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel(name="bad", gemm_engines={}, vector_tflops={},
                        mem_bandwidth_gbps=100.0)
        with pytest.raises(ValueError):
            DeviceModel(
                name="bad",
                gemm_engines={DType.FP32: GemmEngineSpec(10.0, 0.5)},
                vector_tflops={DType.FP32: 5.0}, mem_bandwidth_gbps=0.0)

    def test_balanced_accelerator_ratio(self):
        dev = balanced_accelerator(100.0, 1000.0, name="x")
        assert dev.machine_balance(DType.FP32) == pytest.approx(
            100e12 * 0.52 / 1e12, rel=1e-6)


class TestGemmTiming:
    def test_efficiency_bounded(self, device):
        for shape in (GemmShape(4096, 4096, 1024), GemmShape(17, 33, 7),
                      GemmShape(128, 128, 64, batch=512)):
            eff = gemm_time(shape, DType.FP32, device).efficiency
            assert 0.0 < eff <= 1.0

    def test_large_square_gemm_is_efficient(self, device):
        big = GemmShape(4096, 4096, 4096)
        assert gemm_time(big, DType.FP32, device).efficiency > 0.8

    def test_small_gemm_is_inefficient(self, device):
        small = GemmShape(64, 64, 64)
        big = GemmShape(4096, 4096, 4096)
        assert (gemm_time(small, DType.FP32, device).efficiency
                < gemm_time(big, DType.FP32, device).efficiency)

    def test_fc_gemm_compute_bound_attention_memory_bound(self, device):
        # Takeaway 6 at the shape level (Ph1-B32).
        fc = GemmShape(m=4096, n=4096, k=1024)
        score = GemmShape(m=128, n=128, k=64, batch=512)
        assert not gemm_time(fc, DType.FP32, device).memory_bound
        assert gemm_time(score, DType.FP32, device).memory_bound

    def test_time_includes_launch_overhead(self, device):
        tiny = GemmShape(1, 1, 1)
        t = gemm_time(tiny, DType.FP32, device)
        assert t.total_s >= device.kernel_launch_overhead_s

    def test_fp16_faster_than_fp32_for_large_gemm(self, device):
        shape = GemmShape(4096, 4096, 1024)
        t32 = gemm_time(shape, DType.FP32, device).total_s
        t16 = gemm_time(shape, DType.FP16, device).total_s
        # The paper observes roughly 2-4x GEMM speedup under MP.
        assert 2.0 < t32 / t16 < 5.0

    def test_time_scales_with_flops_for_compute_bound(self, device):
        small = gemm_time(GemmShape(4096, 2048, 1024), DType.FP32,
                          device).total_s
        large = gemm_time(GemmShape(4096, 4096, 1024), DType.FP32,
                          device).total_s
        assert large == pytest.approx(2 * small, rel=0.2)

    def test_missing_shape_rejected_by_kernel_times(self, device):
        k = Kernel(name="g", op_class=OpClass.GEMM, phase=Phase.FORWARD,
                   component=Component.TRANSFORMER, region=Region.FC_GEMM,
                   flops=10, bytes_read=10, bytes_written=10)
        with pytest.raises(ValueError, match="missing shape"):
            one_row_time(k, device)


class TestKernelTiming:
    def _ew(self, n_bytes: int, flops: int = 0) -> Kernel:
        return Kernel(name="ew", op_class=OpClass.ELEMENTWISE,
                      phase=Phase.FORWARD, component=Component.TRANSFORMER,
                      region=Region.DR_RC_LN, flops=flops,
                      bytes_read=n_bytes, bytes_written=0)

    def test_memory_bound_time_matches_bandwidth(self, device):
        n_bytes = 1 << 28
        t = one_row_time(self._ew(n_bytes), device)
        assert t == pytest.approx(
            ramp_time(device, AccessPattern.STREAMING, n_bytes))

    def test_flop_heavy_kernel_limited_by_vector_pipe(self, device):
        heavy = self._ew(1024, flops=10**12)
        t = one_row_time(heavy, device)
        assert t >= 10**12 / (device.vector_tflops[DType.FP32] * 1e12)

    def test_communication_kernels_rejected(self, device):
        k = Kernel(name="ar", op_class=OpClass.COMMUNICATION,
                   phase=Phase.COMMUNICATION,
                   component=Component.COMMUNICATION,
                   region=Region.COMM_ALLREDUCE, flops=0, bytes_read=0,
                   bytes_written=0)
        with pytest.raises(ValueError):
            one_row_time(k, device)

    def test_trace_time_is_additive(self, device):
        kernels = [self._ew(1 << 20) for _ in range(5)]
        assert trace_time(kernels, device) == pytest.approx(
            5 * one_row_time(kernels[0], device))


class TestRoofline:
    def test_ridge_point_positive(self, device):
        assert ridge_point(device, DType.FP32) > 0

    def test_attainable_clamps_at_compute_roof(self, device):
        roof = device.gemm_engine(DType.FP32).effective_peak
        assert attainable(1e9, device, DType.FP32) == pytest.approx(roof)

    def test_attainable_linear_in_memory_region(self, device):
        low = attainable(0.5, device, DType.FP32)
        assert low == pytest.approx(0.5 * device.peak_bandwidth)

    def test_attainable_rejects_negative(self, device):
        with pytest.raises(ValueError):
            attainable(-1.0, device, DType.FP32)

    def test_place_classifies(self, device):
        hot = IntensityRecord(label="fc", flops=10**12, bytes_total=10**9)
        cold = IntensityRecord(label="ew", flops=10**6, bytes_total=10**9)
        assert place(hot, device,
                     DType.FP32).boundedness is Boundedness.COMPUTE_BOUND
        assert place(cold, device,
                     DType.FP32).boundedness is Boundedness.MEMORY_BOUND

    def test_classify_kernels(self, device):
        ew = Kernel(name="ew", op_class=OpClass.ELEMENTWISE,
                    phase=Phase.FORWARD, component=Component.TRANSFORMER,
                    region=Region.DR_RC_LN, flops=100, bytes_read=10**6,
                    bytes_written=10**6)
        result = classify_kernels([ew], device)
        assert result["ew"] is Boundedness.MEMORY_BOUND


class TestGemmMemo:
    def test_bounded_memo_evicts_and_keeps_times_bit_identical(
            self, monkeypatch):
        """Past ``GEMM_MEMO_SIZE`` the oldest entries go, and re-pricing
        an evicted shape gives back the same bits."""
        import numpy as np

        from repro.config import BERT_TINY, TrainingConfig
        from repro.hw import timing
        from repro.trace.bert_trace import build_iteration_trace

        tables = [build_iteration_trace(
            BERT_TINY, TrainingConfig(batch_size=batch, seq_len=64)).table
            for batch in (1, 2, 3, 4)]
        reference = [kernel_times(table, mi100()) for table in tables]

        monkeypatch.setattr(timing, "GEMM_MEMO_SIZE", 8)
        device = mi100()
        misses = []
        for _ in range(2):
            misses.append(timing._MEMO_LOOKUPS.value(result="miss"))
            for table, expected in zip(tables, reference):
                got = kernel_times(table, device)
                assert np.array_equal(got.view(np.int64),
                                      expected.view(np.int64))
                memo, _ = timing._device_gemm_memo(device)
                assert len(memo) <= 8
        # The second round re-prices evicted shapes: its misses are real.
        assert timing._MEMO_LOOKUPS.value(result="miss") - misses[1] > 0
