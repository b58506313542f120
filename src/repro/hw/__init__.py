"""Device performance models: roofline, GEMM tile/wave timing, bandwidth."""

from repro.hw.device import (DeviceModel, GemmEngineSpec, a100_like,
                             balanced_accelerator, mi100, v100_like)
from repro.hw.energy import (EnergyReport, EnergySpec, default_energy_spec,
                             iteration_energy, kernel_energy, trace_energy)
from repro.hw.gemm_model import GemmTimeBreakdown, gemm_time
from repro.hw.roofline import (RooflinePoint, attainable, classify_kernels,
                               place, ridge_point)
from repro.hw.microsim import (BackendComparison, KernelSimResult,
                               compare_backends, simulate_kernel,
                               simulate_trace)
from repro.hw.timing import kernel_times, trace_time

__all__ = [
    "DeviceModel", "EnergyReport", "EnergySpec", "GemmEngineSpec",
    "GemmTimeBreakdown", "RooflinePoint", "default_energy_spec",
    "iteration_energy", "kernel_energy", "trace_energy",
    "BackendComparison", "KernelSimResult", "compare_backends",
    "simulate_kernel", "simulate_trace",
    "a100_like", "v100_like",
    "attainable", "balanced_accelerator", "classify_kernels", "gemm_time",
    "kernel_times", "mi100", "place", "ridge_point", "trace_time",
]
