"""Kernel -> execution time dispatch.

Assigns a time to every :class:`~repro.ops.base.Kernel` on a
:class:`~repro.hw.device.DeviceModel`:

* (batched) GEMMs go through the tile/wave model of
  :mod:`repro.hw.gemm_model`;
* elementwise/reduction/gather kernels are memory-streaming-limited, with a
  vector-arithmetic floor for math-heavy kernels (erf, exp);
* communication kernels are priced by the distributed model, not here, and
  are rejected.

Every kernel pays the device's launch overhead — the term that makes the
unfused-optimizer kernel storms of Fig. 12 expensive despite tiny sizes.

:func:`kernel_times` is the **single timing entry point**: it batches the
GEMM tile-efficiency and achieved-bandwidth models over a whole columnar
:class:`~repro.trace.kernel_table.KernelTable` at once, memoizing GEMM
times per ``(shape, dtype, device)`` since a trace contains only a few
dozen distinct shapes.  Both :func:`trace_time` and
:func:`repro.profiler.profiler.profile_trace` are thin wrappers over it,
so the two can no longer drift apart.  No production path prices one
kernel at a time: the scalar :func:`kernel_time` is kept only as the
reference the golden equivalence tests check the batched path against.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from repro.hw.device import DeviceModel
from repro.hw.gemm_model import (batch_gemm_times, batch_shape_efficiency,
                                 gemm_time)
from repro.obs import metrics, spans
from repro.ops.base import DType, Kernel, OpClass
from repro.trace.kernel_table import ACCESS_PATTERNS, DTYPES, KernelTable

#: GEMM-time memo traffic, labeled ``result=hit|miss``.  One lookup per
#: distinct ``(shape, dtype)`` pair per :func:`kernel_times` call — a few
#: dozen per trace — so the counter costs nothing on the hot path.
_MEMO_LOOKUPS = metrics.counter(
    "gemm_memo.lookups", "GEMM-time memo lookups by result")


def _vector_peak(device: DeviceModel, dtype: DType) -> float:
    """Vector-pipeline FLOP/s for ``dtype``, falling back to FP32."""
    tflops = device.vector_tflops.get(dtype)
    if tflops is None:
        tflops = device.vector_tflops[DType.FP32]
    return tflops * 1e12


def kernel_time(kernel: Kernel, device: DeviceModel) -> float:
    """Execution time of one kernel, in seconds."""
    if kernel.op_class is OpClass.COMMUNICATION:
        raise ValueError(
            f"communication kernel {kernel.name!r} must be priced by "
            "repro.distributed, not the device timing model")

    if kernel.op_class.is_gemm:
        if kernel.gemm is None:
            raise ValueError(f"GEMM kernel {kernel.name!r} missing shape")
        if kernel.flops == kernel.gemm.flops:
            return gemm_time(kernel.gemm, kernel.dtype, device).total_s
        # Fused GEMM kernel (e.g. fused attention): the anchor shape sets
        # the tiling efficiency; totals come from the kernel record.
        from repro.hw.gemm_model import shape_efficiency

        engine = device.gemm_engine(kernel.dtype)
        efficiency = shape_efficiency(kernel.gemm, device)
        compute_s = kernel.flops / (engine.effective_peak * efficiency)
        ceiling = device.gemm_mem_efficiency * device.peak_bandwidth
        ramp = kernel.bytes_total / (kernel.bytes_total
                                     + device.bw_saturation_bytes)
        memory_s = kernel.bytes_total / (ceiling * max(ramp, 1e-9))
        return max(compute_s, memory_s) + device.kernel_launch_overhead_s

    bandwidth = device.achieved_bandwidth(kernel.access, kernel.bytes_total)
    memory_s = kernel.bytes_total / bandwidth if kernel.bytes_total else 0.0
    compute_s = kernel.flops / _vector_peak(device, kernel.dtype)
    return max(memory_s, compute_s) + device.kernel_launch_overhead_s


# ---------------------------------------------------------------------------
# Batched evaluation over a columnar table
# ---------------------------------------------------------------------------

# Per-device memo of GEMM total times keyed by (GemmShape, DType).  Devices
# are frozen dataclasses whose dict-valued fields make them unhashable, so
# the outer key is id(device) guarded by a weakref: an entry is valid only
# while its weakref still resolves to the *same* object, and a finalizer
# evicts it on collection (id reuse can therefore never alias two devices).
_gemm_memo: dict[int, tuple[weakref.ref, dict]] = {}


def _device_gemm_memo(device: DeviceModel) -> dict:
    key = id(device)
    entry = _gemm_memo.get(key)
    if entry is not None and entry[0]() is device:
        return entry[1]
    memo: dict = {}

    def _evict(_ref, key=key):
        _gemm_memo.pop(key, None)

    _gemm_memo[key] = (weakref.ref(device, _evict), memo)
    return memo


def _gemm_rows_times(table: KernelTable, rows: np.ndarray,
                     device: DeviceModel, out: np.ndarray) -> None:
    """Fill ``out[rows]`` with GEMM kernel times.

    Pure GEMMs (kernel flops match the shape's) are memoized per
    ``(shape, dtype, device)`` and evaluated through the batched tile/wave
    model; fused GEMM records (flops beyond the anchor shape) take their
    efficiency from the anchor shape and their costs from their own row.
    """
    memo = _device_gemm_memo(device)
    missing_shape = rows[table.gemm_code[rows] < 0]
    if len(missing_shape):
        name = table.names[int(table.name_code[missing_shape[0]])]
        raise ValueError(f"GEMM kernel {name!r} missing shape")

    shape_flops = np.array([s.flops for s in table.gemms], dtype=np.int64)
    pure = table.flops[rows] == shape_flops[table.gemm_code[rows]]
    fused = rows[~pure]
    if len(fused):
        # kernel_time's fused branch, vectorized in the same order.
        peak = np.array([device.gemm_engine(DTYPES[code]).effective_peak
                         for code in table.dtype[fused].tolist()])
        efficiency = batch_shape_efficiency(
            [table.gemms[code] for code in table.gemm_code[fused].tolist()],
            device)
        compute_s = table.flops[fused] / (peak * efficiency)
        bytes_total = table.bytes_read[fused] + table.bytes_written[fused]
        ceiling = device.gemm_mem_efficiency * device.peak_bandwidth
        ramp = bytes_total / (bytes_total + device.bw_saturation_bytes)
        memory_s = bytes_total / (ceiling * np.maximum(ramp, 1e-9))
        out[fused] = (np.maximum(compute_s, memory_s)
                      + device.kernel_launch_overhead_s)

    pure_rows = rows[pure]
    if not len(pure_rows):
        return
    # One lookup key per (shape, dtype) pair; a trace has a few dozen.
    pair = (table.gemm_code[pure_rows].astype(np.int64) * len(DTYPES)
            + table.dtype[pure_rows])
    unique_pairs, inverse = np.unique(pair, return_inverse=True)
    lookups = len(unique_pairs)
    values = np.empty(len(unique_pairs), dtype=np.float64)
    todo: list[tuple[int, int, int]] = []  # (slot, gemm code, dtype code)
    for slot, pair_code in enumerate(unique_pairs):
        gemm_code, dtype_code = divmod(int(pair_code), len(DTYPES))
        cached = memo.get((table.gemms[gemm_code], DTYPES[dtype_code]))
        if cached is None:
            todo.append((slot, gemm_code, dtype_code))
        else:
            values[slot] = cached
    # Batch the misses through the vectorized tile/wave model, per dtype.
    for dtype_code in sorted({t[2] for t in todo}):
        group = [t for t in todo if t[2] == dtype_code]
        shapes = [table.gemms[g] for _, g, _ in group]
        times = batch_gemm_times(shapes, DTYPES[dtype_code], device)
        for (slot, gemm_code, _), time_s in zip(group, times):
            time_s = float(time_s)
            values[slot] = time_s
            memo[(table.gemms[gemm_code], DTYPES[dtype_code])] = time_s
    if len(todo):
        _MEMO_LOOKUPS.inc(len(todo), result="miss")
    if lookups - len(todo):
        _MEMO_LOOKUPS.inc(lookups - len(todo), result="hit")
    out[pure_rows] = values[inverse]


def kernel_times(kernels: "KernelTable | Iterable[Kernel]",
                 device: DeviceModel) -> np.ndarray:
    """Execution time of every kernel, in seconds, vectorized.

    Accepts a :class:`KernelTable`, a table-backed
    :class:`~repro.trace.builder.Trace`, or any kernel iterable (converted
    to a table first).  Per-kernel results are identical to calling
    :func:`kernel_time` row by row.
    """
    table = KernelTable.coerce(kernels)
    with spans.span("timing.kernel_times", kernels=len(table),
                    device=device.name):
        return _kernel_times_table(table, device)


def _kernel_times_table(table: KernelTable,
                        device: DeviceModel) -> np.ndarray:
    comm = table.is_communication.nonzero()[0]
    if len(comm):
        name = table.names[int(table.name_code[comm[0]])]
        raise ValueError(
            f"communication kernel {name!r} must be priced by "
            "repro.distributed, not the device timing model")

    out = np.empty(len(table), dtype=np.float64)
    gemm_mask = table.is_gemm
    gemm_rows = gemm_mask.nonzero()[0]
    if len(gemm_rows):
        _gemm_rows_times(table, gemm_rows, device, out)

    other = ~gemm_mask
    if other.any():
        bytes_total = table.bytes_total[other]
        dtype_code = table.dtype[other]
        access_code = table.access[other]

        # device.achieved_bandwidth, batched: per-pattern ceiling scaled by
        # the occupancy ramp; zero-byte kernels take the compute path only.
        ceilings = np.array(
            [device.mem_efficiency[p] * device.peak_bandwidth
             for p in ACCESS_PATTERNS], dtype=np.float64)
        ramp = bytes_total / (bytes_total + device.bw_saturation_bytes)
        bandwidth = ceilings[access_code] * ramp
        memory_s = np.divide(bytes_total, bandwidth,
                             out=np.zeros(len(bytes_total)),
                             where=bytes_total > 0)

        peaks = np.array([_vector_peak(device, dt) for dt in DTYPES],
                         dtype=np.float64)
        compute_s = table.flops[other] / peaks[dtype_code]
        out[other] = (np.maximum(memory_s, compute_s)
                      + device.kernel_launch_overhead_s)
    return out


def trace_time(kernels: "KernelTable | Iterable[Kernel]",
               device: DeviceModel) -> float:
    """Total serialized execution time of a kernel sequence.

    The paper profiles eager, stream-serialized execution, so kernel times
    add; overlap only enters through the distributed model.
    """
    return float(np.sum(kernel_times(kernels, device)))
