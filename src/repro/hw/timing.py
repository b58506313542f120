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

:func:`kernel_times` is the **single timing entry point**: it prices a
whole columnar :class:`~repro.trace.kernel_table.KernelTable` at once.
GEMM rows go through :func:`repro.hw.gemm_model.gemm_terms`, memoized per
``(shape, dtype, device)`` since a trace contains only a few dozen
distinct shapes; every other row goes through the one achieved-bandwidth
ramp below.  Shapes are read from the table's GEMM dims pool, and the
memo keys are plain int tuples ``(m, n, k, batch, transpose_a,
transpose_b, accumulate, dtype_code)``, so a stacked grid and a single
``run_point`` trace share entries without building shape records; each
device's memo keeps at most :data:`GEMM_MEMO_SIZE` of them.  Both
:func:`trace_time` and :func:`repro.profiler.profiler.profile_trace` are
thin wrappers over it.
There is no per-kernel timing function: a single kernel is priced as a
one-row table, and ``tests/golden/time_digests.json`` freezes the times.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Iterable

import numpy as np

from repro.hw.device import DeviceModel
from repro.hw.gemm_model import gemm_terms, shape_gemm_terms
from repro.obs import metrics, spans
from repro.ops.base import DType, Kernel
from repro.ops.gemm import dims_flops
from repro.trace.kernel_table import ACCESS_PATTERNS, DTYPES, KernelTable

#: GEMM-time memo traffic, labeled ``result=hit|miss``.  One lookup per
#: distinct ``(shape, dtype)`` pair per :func:`kernel_times` call — a few
#: dozen per trace, about 17 per point of a grid — counted in one
#: increment per result.
_MEMO_LOOKUPS = metrics.counter(
    "gemm_memo.lookups", "GEMM-time memo lookups by result")


def _vector_peak(device: DeviceModel, dtype: DType) -> float:
    """Vector-pipeline FLOP/s for ``dtype``, falling back to FP32."""
    tflops = device.vector_tflops.get(dtype)
    if tflops is None:
        tflops = device.vector_tflops[DType.FP32]
    return tflops * 1e12


#: Most GEMM times one device's memo keeps.  A fresh sweep point adds
#: about 17 ``(shape, dtype)`` keys, so this holds about two 1000-point
#: grids; past it the oldest entries are evicted first, and a later
#: lookup of one recomputes the same bits.
GEMM_MEMO_SIZE = 1 << 15

# Per-device memo of GEMM total times keyed by the int tuple
# (m, n, k, batch, transpose_a, transpose_b, accumulate, dtype_code).  Devices
# are frozen dataclasses whose dict-valued fields make them unhashable, so
# the outer key is id(device) guarded by a weakref: an entry is valid only
# while its weakref still resolves to the *same* object, and a finalizer
# evicts it on collection (id reuse can therefore never alias two devices).
# Each memo carries a lock that serializes its writes and evictions across
# the server's worker threads; a single ``dict.get`` needs none.
_gemm_memo: dict[int, tuple[weakref.ref, dict, threading.Lock]] = {}
_gemm_memo_lock = threading.Lock()


def _device_gemm_memo(device: DeviceModel) -> tuple[dict, threading.Lock]:
    key = id(device)
    with _gemm_memo_lock:
        entry = _gemm_memo.get(key)
        if entry is not None and entry[0]() is device:
            return entry[1], entry[2]
        memo: dict = {}
        lock = threading.Lock()

        def _evict(_ref, key=key):
            _gemm_memo.pop(key, None)

        _gemm_memo[key] = (weakref.ref(device, _evict), memo, lock)
        return memo, lock


def _memo_store(memo: dict, lock: threading.Lock, items) -> None:
    """Add ``items`` to a device memo, then evict its oldest entries
    beyond :data:`GEMM_MEMO_SIZE`."""
    with lock:
        memo.update(items)
        excess = len(memo) - GEMM_MEMO_SIZE
        if excess > 0:
            for stale in list(itertools.islice(memo, excess)):
                del memo[stale]


def _gemm_totals(compute_s: np.ndarray, memory_s: np.ndarray,
                 device: DeviceModel) -> np.ndarray:
    """GEMM row times: the larger roofline term plus launch overhead."""
    return np.maximum(compute_s, memory_s) + device.kernel_launch_overhead_s


def _gemm_rows_times(table: KernelTable, rows: np.ndarray,
                     device: DeviceModel, out: np.ndarray) -> None:
    """Fill ``out[rows]`` with GEMM kernel times.

    Pure GEMMs (kernel flops match the shape's) are memoized per
    ``(shape, dtype, device)``; fused GEMM records (flops beyond the anchor
    shape) take their tiling from the anchor shape and their costs from
    their own row.  Both price through :func:`gemm_terms`.
    """
    memo, lock = _device_gemm_memo(device)
    gemm_code = table.gemm_code[rows]
    missing_shape = rows[gemm_code < 0]
    if len(missing_shape):
        name = table.names[int(table.name_code[missing_shape[0]])]
        raise ValueError(f"GEMM kernel {name!r} missing shape")

    dims = table.gemm_dims
    pure = table.flops[rows] == dims_flops(dims)[gemm_code]
    fused = rows[~pure]
    if len(fused):
        peaks = np.array([device.gemm_engine(dt).effective_peak
                          for dt in DTYPES], dtype=np.float64)
        compute_s, memory_s, _ = gemm_terms(
            dims[gemm_code[~pure]],
            table.flops[fused],
            table.bytes_read[fused] + table.bytes_written[fused],
            peaks[table.dtype[fused]], device)
        out[fused] = _gemm_totals(compute_s, memory_s, device)

    pure_rows = rows[pure]
    if not len(pure_rows):
        return
    # One lookup key per (shape, dtype) pair, deduplicated by a dense
    # table over every pooled pair code (ascending, as np.unique's).
    pair = (gemm_code[pure].astype(np.int64) * len(DTYPES)
            + table.dtype[pure_rows])
    present = np.zeros(len(dims) * len(DTYPES), dtype=bool)
    present[pair] = True
    unique_pairs = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[pair]
    shape_codes, dtype_codes = np.divmod(unique_pairs, len(DTYPES))
    pair_dims = dims[shape_codes]
    keys = list(zip(*pair_dims.T.tolist(), dtype_codes.tolist()))
    values = np.fromiter(map(memo.get, keys, itertools.repeat(np.nan)),
                         dtype=np.float64, count=len(keys))
    todo = np.isnan(values).nonzero()[0]
    if len(todo):
        compute_s, memory_s, _ = shape_gemm_terms(
            pair_dims[todo], dtype_codes[todo], device)
        values[todo] = _gemm_totals(compute_s, memory_s, device)
        _memo_store(memo, lock, zip([keys[slot] for slot in todo.tolist()],
                                    values[todo].tolist()))
        _MEMO_LOOKUPS.inc(len(todo), result="miss")
    if len(keys) - len(todo):
        _MEMO_LOOKUPS.inc(len(keys) - len(todo), result="hit")
    out[pure_rows] = values[inverse]


def kernel_times(kernels: "KernelTable | Iterable[Kernel]",
                 device: DeviceModel) -> np.ndarray:
    """Execution time of every kernel, in seconds, vectorized.

    Accepts a :class:`KernelTable`, a table-backed
    :class:`~repro.trace.builder.Trace`, or any kernel iterable (converted
    to a table first).
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

        # Achieved bandwidth: the access pattern's ceiling scaled by an
        # occupancy ramp, so tiny kernels cannot fill the memory system and
        # large ones approach the ceiling.  Zero-byte kernels take the
        # compute path only.
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
