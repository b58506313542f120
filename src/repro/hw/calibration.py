"""Device-model calibration tooling.

DESIGN.md §5 commits to a single frozen device model; this module is the
auditable derivation of its constants and a tool for re-targeting the
model at other published profiles.  Given target runtime fractions (e.g.
the paper's Fig. 3/4 percentages), :func:`calibrate` runs coordinate
descent over the efficiency knobs — bandwidth ceilings and GEMM
achievable fractions — minimizing the squared error of the modeled
fractions.

The shipped MI100 preset is (deliberately) *not* regenerated at import
time: it balances the Fig. 3/4 fractions captured in
:func:`paper_targets` against shape constraints this scalar objective does
not encode (the Fig. 7 bandwidth ordering, the Fig. 8/9 sweep trends), so
a pure descent on these targets would trade the latter away.  The test
suite verifies that the shipped constants already land within the target
bands and that the fitter monotonically improves the objective when run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import BertConfig, TrainingConfig
from repro.hw.device import DeviceModel, GemmEngineSpec
from repro.ops.base import AccessPattern, DType

#: The tunable knobs, as (name, getter, setter-factory) triples.
KNOBS = ("streaming_bw", "strided_bw", "multi_tensor_bw", "gemm_mem_bw",
         "fp32_gemm_fraction", "fp16_gemm_fraction")


@dataclass(frozen=True)
class CalibrationTarget:
    """One target fraction the calibration should reproduce.

    Attributes:
        name: label for reporting.
        training: operating point to profile.
        metric: summary key (``"gemm"``, ``"optimizer"``, ...).
        value: the target fraction.
        weight: relative importance in the objective.
    """

    name: str
    training: TrainingConfig
    metric: str
    value: float
    weight: float = 1.0


def get_knobs(device: DeviceModel) -> dict[str, float]:
    """Current values of the tunable knobs."""
    return {
        "streaming_bw": device.mem_efficiency[AccessPattern.STREAMING],
        "strided_bw": device.mem_efficiency[AccessPattern.STRIDED],
        "multi_tensor_bw": device.mem_efficiency[AccessPattern.MULTI_TENSOR],
        "gemm_mem_bw": device.gemm_mem_efficiency,
        "fp32_gemm_fraction":
            device.gemm_engines[DType.FP32].achievable_fraction,
        "fp16_gemm_fraction":
            device.gemm_engines[DType.FP16].achievable_fraction,
    }


def set_knobs(device: DeviceModel, knobs: dict[str, float]) -> DeviceModel:
    """A copy of ``device`` with the given knob values applied."""
    for name, value in knobs.items():
        if name not in KNOBS:
            raise KeyError(f"unknown knob {name!r}")
        if not 0.01 <= value <= 1.0:
            raise ValueError(f"knob {name}={value} outside (0.01, 1.0]")
    efficiency = dict(device.mem_efficiency)
    efficiency[AccessPattern.STREAMING] = knobs["streaming_bw"]
    efficiency[AccessPattern.STRIDED] = knobs["strided_bw"]
    efficiency[AccessPattern.MULTI_TENSOR] = knobs["multi_tensor_bw"]
    engines = dict(device.gemm_engines)
    engines[DType.FP32] = GemmEngineSpec(
        peak_tflops=engines[DType.FP32].peak_tflops,
        achievable_fraction=knobs["fp32_gemm_fraction"])
    engines[DType.FP16] = GemmEngineSpec(
        peak_tflops=engines[DType.FP16].peak_tflops,
        achievable_fraction=knobs["fp16_gemm_fraction"])
    return dataclasses.replace(device, mem_efficiency=efficiency,
                               gemm_engines=engines,
                               gemm_mem_efficiency=knobs["gemm_mem_bw"])


def objective(device: DeviceModel, model: BertConfig,
              targets: list[CalibrationTarget]) -> float:
    """Weighted squared error of modeled vs. target fractions."""
    # Lazy: repro.experiments.common imports repro.hw at module scope.
    from repro.experiments.common import run_point
    from repro.profiler.breakdown import summarize

    error = 0.0
    for target in targets:
        stats = summarize(run_point(model, target.training, device)[1])
        if target.metric not in stats:
            raise KeyError(f"unknown metric {target.metric!r}")
        error += target.weight * (stats[target.metric] - target.value) ** 2
    return error


@dataclass
class CalibrationResult:
    """Outcome of a calibration run.

    Attributes:
        device: the calibrated device model.
        knobs: final knob values.
        initial_error / final_error: objective before and after.
        iterations: coordinate-descent sweeps performed.
    """

    device: DeviceModel
    knobs: dict[str, float]
    initial_error: float
    final_error: float
    iterations: int


def calibrate(device: DeviceModel, model: BertConfig,
              targets: list[CalibrationTarget], *,
              max_iterations: int = 8, step: float = 0.15,
              tolerance: float = 1e-6) -> CalibrationResult:
    """Coordinate descent over the device knobs.

    Each sweep tries scaling every knob by ``(1 +- step)`` (shrinking the
    step when no move helps) and keeps improvements.  Deterministic and
    dependency-free; adequate for the smooth, low-dimensional objective.
    """
    if not targets:
        raise ValueError("no calibration targets")
    knobs = get_knobs(device)
    best_error = objective(set_knobs(device, knobs), model, targets)
    initial_error = best_error

    iterations = 0
    current_step = step
    for _ in range(max_iterations):
        iterations += 1
        improved = False
        for name in KNOBS:
            for factor in (1.0 + current_step, 1.0 - current_step):
                candidate = dict(knobs)
                candidate[name] = min(1.0, max(0.01,
                                               knobs[name] * factor))
                error = objective(set_knobs(device, candidate), model,
                                  targets)
                if error < best_error - tolerance:
                    best_error = error
                    knobs = candidate
                    improved = True
        if not improved:
            current_step /= 2.0
            if current_step < 0.02:
                break
    return CalibrationResult(device=set_knobs(device, knobs), knobs=knobs,
                             initial_error=initial_error,
                             final_error=best_error,
                             iterations=iterations)


def paper_targets() -> list[CalibrationTarget]:
    """The Fig. 3/4 fractions the shipped MI100 preset was fit against."""
    from repro.config import Precision, training_point

    b32 = training_point(1, 32, Precision.FP32)
    b4 = training_point(1, 4, Precision.FP32)
    b32_mp = training_point(1, 32, Precision.MIXED)
    return [
        CalibrationTarget("lamb@b32", b32, "optimizer", 0.085, weight=4.0),
        CalibrationTarget("lamb@b4", b4, "optimizer", 0.25, weight=2.0),
        CalibrationTarget("lamb@b32-mp", b32_mp, "optimizer", 0.175,
                          weight=2.0),
        CalibrationTarget("gemm@b32", b32, "gemm", 0.58, weight=1.0),
        CalibrationTarget("gemm@b32-mp", b32_mp, "gemm", 0.40, weight=1.0),
        CalibrationTarget("output@b32", b32, "output", 0.05, weight=1.0),
    ]
