"""Tile/wave GEMM timing model.

A BLAS GEMM is decomposed into macro-tiles of the output matrix, each
assigned to one compute unit.  Three effects put real GEMMs below the
engine's achievable peak, and all three matter for the paper's story that
"not all GEMMs in BERT are equal" (Takeaway 6):

* **tile quantization** — M or N not a multiple of the tile wastes lanes;
* **wave quantization** — the last wave of tiles underfills the CUs (this is
  what makes the ``d_model x tokens x d_model`` linear GEMMs slower per FLOP
  than the 4x larger FC GEMMs);
* **K-loop amortization** — short contractions (the ``d_model/h = 64`` of
  attention batched GEMMs) never reach pipeline steady state.

The final kernel time is the roofline maximum of this compute time and the
memory streaming time, plus launch overhead.

:func:`gemm_terms` is the one implementation of the model: it prices a
whole array of GEMM rows at once.  :func:`repro.hw.timing.kernel_times`
calls it for every GEMM row of a trace, and :func:`gemm_time` is row 0 of
a batch of one.  Shapes enter as rows of a dims array
(:data:`~repro.ops.gemm.GEMM_DIMS`, a kernel table's GEMM pool), so a
grid's thousands of distinct shapes are priced without a
:class:`~repro.ops.gemm.GemmShape` per shape.  The event-driven backend
of :mod:`repro.hw.microsim` replays the same tiles wave by wave, as a
second opinion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.device import DeviceModel
from repro.ops.base import DType
from repro.ops.gemm import GemmShape, dims_bytes, dims_flops, gemm_dims
from repro.trace.kernel_table import DTYPE_BYTES, DTYPES


@dataclass(frozen=True)
class GemmTimeBreakdown:
    """Where a GEMM's time comes from, for reporting and tests.

    Attributes:
        compute_s: FLOP-limited time at the shape's efficiency.
        memory_s: traffic-limited time.
        overhead_s: launch overhead.
        efficiency: fraction of the engine's achievable peak realized.
    """

    compute_s: float
    memory_s: float
    overhead_s: float
    efficiency: float

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.overhead_s

    @property
    def memory_bound(self) -> bool:
        return self.memory_s > self.compute_s


#: Candidate macro-tile configurations the BLAS autotuner chooses from:
#: (tile_m, tile_n, intrinsic efficiency ceiling).  Smaller tiles expose
#: more parallelism for small/skinny GEMMs but run at a lower per-tile
#: ceiling (less register blocking, worse MFMA utilization).
TILE_CANDIDATES: tuple[tuple[int, int, float], ...] = (
    (128, 128, 1.00),
    (64, 64, 0.70),
    (32, 32, 0.42),
)

# The candidates as (candidates, 1) columns that broadcast against rows.
_TILE_M, _TILE_N, _TILE_CEILING = (
    np.array(column)[:, None] for column in zip(*TILE_CANDIDATES))


def gemm_terms(dims: np.ndarray, flops: np.ndarray, bytes_moved: np.ndarray,
               peaks: np.ndarray, device: DeviceModel
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roofline terms of many GEMM rows: the one tile/wave/K-loop model.

    The BLAS library autotunes over macro-tile sizes, so each row takes the
    best of :data:`TILE_CANDIDATES` — small GEMMs trade per-tile efficiency
    for occupancy, exactly the regime where fusing the three attention
    linear GEMMs pays off (Fig. 12b).  Memory time streams each row's bytes
    once — valid for the K-resident blocking real BLAS libraries use at
    these sizes — through the GEMM bandwidth ceiling, derated by the
    occupancy ramp.

    Args:
        dims: ``(rows, 7)`` int64 :data:`~repro.ops.gemm.GEMM_DIMS` rows
            of the shape that sets each row's tiling; only
            ``(m, n, k, batch)`` enter.
        flops: per-row FLOPs; a fused GEMM kernel's exceed its shape's.
        bytes_moved: per-row device-memory traffic.
        peaks: per-row achievable FLOP/s of the row's GEMM engine.
        device: supplies CUs, ``gemm_k_half`` and the bandwidth model.

    Returns:
        ``(compute_s, memory_s, efficiency)`` float64 arrays; a row's time
        is ``max(compute_s, memory_s)`` plus the launch overhead.
    """
    m, n, k, batch = dims.T[:4]
    cus = device.compute_units
    # One row per candidate tiling, one column per GEMM row.
    tiles_m = -(-m // _TILE_M)
    tiles_n = -(-n // _TILE_N)
    tiles = tiles_m * tiles_n * batch
    # Lanes wasted inside partial tiles.
    tile_util = (m * n) / (tiles_m * _TILE_M * tiles_n * _TILE_N)
    # CUs idle during the final wave.
    waves = -(-tiles // cus)
    wave_util = tiles / (waves * cus)
    # K-loop prologue/epilogue amortization.
    k_util = k / (k + device.gemm_k_half)
    efficiency = (_TILE_CEILING * tile_util * wave_util * k_util).max(axis=0)
    compute_s = flops / (peaks * efficiency)

    bandwidth = device.gemm_mem_efficiency * device.peak_bandwidth
    ramp = bytes_moved / (bytes_moved + device.bw_saturation_bytes)
    # The clamp keeps a zero-byte row at 0 s instead of 0/0; it never binds
    # for a row that moves bytes.
    memory_s = bytes_moved / (bandwidth * np.maximum(ramp, 1e-9))
    return compute_s, memory_s, efficiency


def shape_gemm_terms(dims: np.ndarray, dtype_codes: np.ndarray,
                     device: DeviceModel
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gemm_terms` of GEMMs that move exactly their shape's FLOPs and
    bytes: one row per dims row, in the dtype of the kernel-table dtype
    code beside it."""
    peaks = np.array([device.gemm_engine(dtype).effective_peak
                      for dtype in DTYPES], dtype=np.float64)
    return gemm_terms(dims, dims_flops(dims),
                      dims_bytes(dims, DTYPE_BYTES[dtype_codes]),
                      peaks[dtype_codes], device)


def gemm_time(shape: GemmShape, dtype: DType,
              device: DeviceModel) -> GemmTimeBreakdown:
    """Execution-time breakdown of one (batched) GEMM on ``device``: row 0
    of :func:`shape_gemm_terms`."""
    compute_s, memory_s, efficiency = shape_gemm_terms(
        gemm_dims([shape]), np.array([DTYPES.index(dtype)]), device)
    return GemmTimeBreakdown(compute_s=float(compute_s[0]),
                             memory_s=float(memory_s[0]),
                             overhead_s=device.kernel_launch_overhead_s,
                             efficiency=float(efficiency[0]))
