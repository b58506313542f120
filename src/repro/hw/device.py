"""Device models.

The paper's profiles come from an AMD Instinct MI100 (Sec. 3.1.1).  We model
a device by its published peaks plus a small set of *achievable-fraction*
parameters that capture how far real kernels sit below peak.  The fractions
are set once from first principles and the ratios the paper itself reports
(e.g. memory-bound kernels speed up 1.5-1.9x under mixed precision, GEMMs
~3x), then frozen: every experiment in :mod:`repro.experiments` runs through
the same device instance.  Sec. 7 of the paper argues breakdowns transfer
between devices with similar compute/bandwidth ratios, which is exactly the
knob set exposed here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.ops.base import AccessPattern, DType


@dataclass(frozen=True)
class GemmEngineSpec:
    """Peak and achievable throughput of the device's GEMM engine per dtype.

    Attributes:
        peak_tflops: marketed dense-matrix peak, in TFLOP/s.
        achievable_fraction: ceiling fraction of peak that a large, square,
            well-tiled GEMM reaches through the vendor BLAS.  Real MFMA
            pipelines lose ground to instruction issue, LDS bandwidth and
            epilogues; FP16 matrix pipes lose proportionally more because
            their raw peak is far above what the memory system can feed.
    """

    peak_tflops: float
    achievable_fraction: float

    @property
    def effective_peak(self) -> float:
        """Achievable FLOP/s for an ideally-shaped GEMM."""
        return self.peak_tflops * 1e12 * self.achievable_fraction


@dataclass(frozen=True)
class DeviceModel:
    """An accelerator's performance-model parameters.

    Attributes:
        name: device label.
        gemm_engines: per-dtype GEMM engine specs.
        vector_tflops: per-dtype peak of the vector (non-matrix) pipeline,
            used for elementwise arithmetic limits.
        mem_bandwidth_gbps: peak DRAM bandwidth in GB/s.
        mem_efficiency: achieved-bandwidth ceiling per access pattern for
            large transfers; small transfers are further derated by
            ``bw_saturation_bytes``.
        gemm_mem_efficiency: achieved-bandwidth ceiling for memory-bound
            (batched) GEMM kernels.  BLAS kernels tile and prefetch far
            better than eager elementwise kernels, so they sustain a higher
            fraction of pin bandwidth (Fig. 7 shows attention GEMMs reaching
            ~70% of the best bandwidth any BERT op achieves).
        bw_saturation_bytes: transfer size at which a streaming kernel
            reaches half its bandwidth ceiling (latency/occupancy ramp).
        kernel_launch_overhead_s: fixed host+dispatch cost per kernel.
        compute_units: number of CUs/SMs, for the GEMM wave model.
        gemm_tile_m/gemm_tile_n: macro-tile the BLAS assigns one CU.
        gemm_k_half: K extent at which the K-loop reaches half its steady
            state efficiency (prologue/epilogue amortization).
        hbm_capacity_gb: device memory capacity, for footprint checks.
    """

    name: str
    gemm_engines: dict[DType, GemmEngineSpec]
    vector_tflops: dict[DType, float]
    mem_bandwidth_gbps: float
    mem_efficiency: dict[AccessPattern, float] = field(default_factory=lambda: {
        AccessPattern.STREAMING: 0.40,
        AccessPattern.STRIDED: 0.34,
        AccessPattern.MULTI_TENSOR: 0.35,
        AccessPattern.IRREGULAR: 0.10,
    })
    gemm_mem_efficiency: float = 0.42
    bw_saturation_bytes: float = 2.0 * 2**20
    kernel_launch_overhead_s: float = 5.0e-6
    compute_units: int = 120
    gemm_tile_m: int = 128
    gemm_tile_n: int = 128
    gemm_k_half: int = 96
    hbm_capacity_gb: float = 32.0

    def __post_init__(self) -> None:
        if self.mem_bandwidth_gbps <= 0:
            raise ValueError("mem_bandwidth_gbps must be positive")
        if not self.gemm_engines:
            raise ValueError("device needs at least one GEMM engine spec")

    @property
    def peak_bandwidth(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.mem_bandwidth_gbps * 1e9

    def gemm_engine(self, dtype: DType) -> GemmEngineSpec:
        """GEMM engine used for ``dtype``, falling back to FP32."""
        if dtype in self.gemm_engines:
            return self.gemm_engines[dtype]
        return self.gemm_engines[DType.FP32]

    def machine_balance(self, dtype: DType) -> float:
        """Ops/byte at which ``dtype`` GEMMs shift from memory- to
        compute-bound (effective peak over peak bandwidth)."""
        return self.gemm_engine(dtype).effective_peak / self.peak_bandwidth

    def with_overrides(self, **kwargs) -> "DeviceModel":
        """Copy with fields replaced (for what-if device studies, Sec. 7).

        Devices are never mutated in place: ``hw.timing``'s GEMM memo and
        ``runner.cache.device_fingerprint`` are keyed by object identity.
        """
        return replace(self, **kwargs)


def mi100() -> DeviceModel:
    """MI100-like device (the paper's testbed).

    Published peaks: 23.1 TFLOP/s FP32 vector, 46.1 TFLOP/s FP32 matrix,
    184.6 TFLOP/s FP16 matrix, 1228.8 GB/s HBM2, 120 CUs.  Achievable
    fractions reflect measured rocBLAS behavior: FP32 MFMA GEMMs sustain
    ~35-37 TFLOP/s on large square shapes (~0.8 of peak) while FP16 MFMA
    sustains ~115 TFLOP/s (~0.62 — the 8x raw peak is issue- and
    LDS-limited), reproducing the ~3x GEMM speedup the paper observes under
    mixed precision.  The memory-efficiency ceilings reflect eager-mode
    elementwise/reduction kernels, which sustain well under half of the
    HBM2 pin bandwidth.
    """
    return DeviceModel(
        name="mi100",
        gemm_engines={
            DType.FP32: GemmEngineSpec(peak_tflops=46.1,
                                       achievable_fraction=0.80),
            DType.FP16: GemmEngineSpec(peak_tflops=184.6,
                                       achievable_fraction=0.62),
            DType.BF16: GemmEngineSpec(peak_tflops=92.3,
                                       achievable_fraction=0.62),
        },
        vector_tflops={DType.FP32: 23.1, DType.FP16: 46.1, DType.BF16: 46.1},
        mem_bandwidth_gbps=1228.8,
    )


@functools.cache
def default_device() -> DeviceModel:
    """The one frozen device every default-device caller shares.

    One object per process, so :mod:`repro.hw.timing`'s per-device GEMM
    memo and the cache's device fingerprint stay warm across experiments,
    grids and points.  :func:`mi100` still builds a fresh object for
    callers that need a separate device.
    """
    return mi100()


def v100_like() -> DeviceModel:
    """A V100-class device: 15.7 TFLOP/s FP32, 125 TFLOP/s FP16 tensor
    cores, 900 GB/s HBM2, 80 SMs.

    Its FP32 machine balance (~16 ops/B effective) is bandwidth-richer
    than the MI100's (~30 ops/B), so per Sec. 7 the BERT profile stays
    GEMM-dominated with the same operation orderings while the
    memory-bound share shrinks; the transfer-study experiment checks
    exactly that monotonicity.
    """
    return DeviceModel(
        name="v100-like",
        gemm_engines={
            DType.FP32: GemmEngineSpec(peak_tflops=15.7,
                                       achievable_fraction=0.90),
            DType.FP16: GemmEngineSpec(peak_tflops=125.0,
                                       achievable_fraction=0.55),
        },
        vector_tflops={DType.FP32: 15.7, DType.FP16: 31.4},
        mem_bandwidth_gbps=900.0,
        compute_units=80,
        hbm_capacity_gb=32.0,
    )


def a100_like() -> DeviceModel:
    """An A100-class device: 19.5 TFLOP/s FP32 (156 TF32), 312 TFLOP/s FP16,
    1555 GB/s HBM2e, 108 SMs — a compute-heavier ratio than the MI100."""
    return DeviceModel(
        name="a100-like",
        gemm_engines={
            DType.FP32: GemmEngineSpec(peak_tflops=156.0,
                                       achievable_fraction=0.55),
            DType.FP16: GemmEngineSpec(peak_tflops=312.0,
                                       achievable_fraction=0.55),
        },
        vector_tflops={DType.FP32: 19.5, DType.FP16: 78.0},
        mem_bandwidth_gbps=1555.0,
        compute_units=108,
        hbm_capacity_gb=40.0,
    )


def balanced_accelerator(compute_tflops: float, bandwidth_gbps: float,
                         name: str = "custom") -> DeviceModel:
    """A generic accelerator with a chosen compute/bandwidth ratio.

    Used by the Sec. 7 what-if studies: the paper argues operation
    boundedness transfers across devices with similar compute/bandwidth
    ratios, and that future devices scale compute faster than memory.
    """
    return DeviceModel(
        name=name,
        gemm_engines={
            DType.FP32: GemmEngineSpec(peak_tflops=compute_tflops,
                                       achievable_fraction=0.52),
            DType.FP16: GemmEngineSpec(peak_tflops=compute_tflops * 4,
                                       achievable_fraction=0.38),
        },
        vector_tflops={DType.FP32: compute_tflops / 2,
                       DType.FP16: compute_tflops},
        mem_bandwidth_gbps=bandwidth_gbps,
    )
