"""Frozen per-kernel time digests and ``gemm_time`` breakdowns.

``tests/golden/time_digests.json`` holds two parts:

* ``kernel_times``: for each case below, the row count and the sha256
  of the little-endian float64 column :func:`repro.hw.timing.kernel_times`
  returns.  The cases are every case of ``tests/golden/trace_digests.json``
  on ``mi100()``; the tiny Ph2-B4 mixed trace on ``mi100()``,
  ``v100_like()``, ``a100_like()`` and one ``mi100().with_overrides(...)``
  device; and the three tiny traces the profile-engine goldens price;
* ``gemm_time``: the ``repr`` of :func:`repro.hw.gemm_model.gemm_time`'s
  breakdown for every Fig. 6 shape (BERT Large, Ph1-B32) in FP32 and FP16
  on the default device.

The digests were computed once from the scalar per-kernel timing oracle
and the scalar tile/wave loop, and are never regenerated: a change that
should not move a kernel time must leave this file green.  A hash of the
float64 bytes is bit-exact, so a match means every row time is ``==``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import BERT_TINY, Precision, training_point
from repro.experiments import fig6
from repro.hw.device import a100_like, default_device, mi100, v100_like
from repro.hw.gemm_model import gemm_time
from repro.hw.timing import kernel_times
from repro.ops.base import DType
from repro.trace import build_iteration_trace, build_pipeline
from tests.test_trace_digests import CASES as TRACE_CASES

GOLDEN = Path(__file__).parent / "golden" / "time_digests.json"

#: Device label -> factory.  The what-if device moves every knob of the
#: GEMM and bandwidth models off its MI100 default.
DEVICES = {
    "mi100": mi100,
    "v100": v100_like,
    "a100": a100_like,
    "mi100-what-if": lambda: mi100().with_overrides(
        compute_units=104, gemm_k_half=64, mem_bandwidth_gbps=1600.0,
        gemm_mem_efficiency=0.5, bw_saturation_bytes=1.0 * 2**20,
        kernel_launch_overhead_s=3.0e-6),
}

TINY_PH2_B4_MIXED = (BERT_TINY, training_point(2, 4, Precision.MIXED))
TINY_PH1_B32_FP32 = (BERT_TINY, training_point(1, 32, Precision.FP32))
TINY_PH1_B4_FP32 = (BERT_TINY, training_point(1, 4, Precision.FP32))

#: Traces the profile-engine goldens price beyond the trace-digest cases.
#: ``fused_attention`` emits fused-GEMM rows (FLOPs beyond their shape).
EXTRA_TRACES = {
    "tiny-ph1-b32-fp32": lambda: build_iteration_trace(*TINY_PH1_B32_FP32),
    "tiny-ph1-b4-fp32": lambda: build_iteration_trace(*TINY_PH1_B4_FP32),
    "tiny-ph1-b4-fp32/fused_attention": lambda: build_pipeline(
        "fused_attention").run(build_iteration_trace(*TINY_PH1_B4_FP32)),
}


def _case_builders() -> dict:
    cases = {f"mi100/{name}": (build, "mi100")
             for name, build in TRACE_CASES.items()}
    for device in DEVICES:
        cases[f"{device}/tiny-ph2-b4-mixed"] = (
            lambda: build_iteration_trace(*TINY_PH2_B4_MIXED), device)
    for name, build in EXTRA_TRACES.items():
        cases[f"mi100/{name}"] = (build, "mi100")
    return cases


#: Case id -> (zero-argument trace builder, device label).
CASES = _case_builders()

#: ``gemm_time`` dtypes frozen for the Fig. 6 shapes.
GEMM_DTYPES = {"fp32": DType.FP32, "fp16": DType.FP16}


def times_digest(times: np.ndarray) -> dict:
    """Row count and sha256 of the little-endian float64 time column."""
    column = np.ascontiguousarray(times, dtype="<f8")
    return {"kernels": len(column),
            "sha256": hashlib.sha256(column.tobytes()).hexdigest()}


def fig6_shapes() -> dict:
    """Fig. 6 bar label -> GEMM shape (BERT Large, Ph1-B32)."""
    return {record.label: record.shape for record in fig6.run()}


def gemm_breakdowns(dtype: DType) -> dict[str, str]:
    """Fig. 6 bar label -> ``repr`` of its ``gemm_time`` breakdown."""
    device = default_device()
    return {label: repr(gemm_time(shape, dtype, device))
            for label, shape in fig6_shapes().items()}


@functools.cache
def frozen() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_times_frozen(case: str, times: np.ndarray) -> None:
    """``times`` is bit for bit the column frozen for ``case``."""
    assert times_digest(times) == frozen()["kernel_times"][case], case


def test_golden_file_covers_exactly_the_cases():
    assert sorted(frozen()["kernel_times"]) == sorted(CASES)
    assert len(CASES) == len(TRACE_CASES) + len(DEVICES) + len(EXTRA_TRACES)
    assert sorted(frozen()["gemm_time"]) == sorted(GEMM_DTYPES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_times_match_frozen_digest(case):
    build, device = CASES[case]
    assert_times_frozen(case, kernel_times(build(), DEVICES[device]()))


@pytest.mark.parametrize("dtype", sorted(GEMM_DTYPES))
def test_gemm_time_breakdowns_match_frozen(dtype):
    assert gemm_breakdowns(GEMM_DTYPES[dtype]) == frozen()["gemm_time"][dtype]
