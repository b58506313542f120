"""Stamp one point family into a stacked, point-major KernelTable.

One emitter walk with :class:`~repro.grid.lanes.LaneTraining` lanes yields
*template* kernels whose numeric fields are ``(P,)`` arrays (one lane per
point).  This module lays them out with the builder's own
:func:`repro.trace.bert_trace.iteration_layout`, so each point gets the
row order :func:`~repro.trace.bert_trace.build_iteration_trace` produces,
with each point's rows **contiguous** in the stacked table.  Contiguity
is what keeps per-point aggregation bit-exact against the loop path: a
point's times are a plain slice, so masked sums reduce over the same
arrays in the same order.

GEMM shapes are pooled across the whole family with one
``np.unique(axis=0)`` over the ``(m, n, k, batch, tA, tB, acc)`` integer
matrix; the pooled :class:`~repro.ops.gemm.GemmShape` records are rebuilt
from Python ints so they hash/compare equal to loop-built shapes and share
the per-device GEMM-time memo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import BertConfig, TrainingConfig
from repro.grid.lanes import LaneTraining
from repro.ops.base import Kernel
from repro.ops.gemm import GemmShape
from repro.trace.bert_trace import iteration_layout, pretraining_sections
from repro.trace.kernel_table import KernelTable, code_of

#: GemmShape fields flattened into the integer pooling matrix, in order.
_GEMM_FIELDS = ("m", "n", "k", "batch", "transpose_a", "transpose_b",
                "accumulate")


def _pool_gemms(template: list[Kernel],
                lane_count: int) -> tuple[np.ndarray, tuple[GemmShape, ...]]:
    """Per-(template row, lane) GEMM codes plus the pooled shape tuple."""
    gemm_rows = [i for i, k in enumerate(template) if k.gemm is not None]
    codes = np.full((len(template), lane_count), -1, dtype=np.int64)
    if not gemm_rows:
        return codes, ()
    dims = np.empty((len(gemm_rows), lane_count, len(_GEMM_FIELDS)),
                    dtype=np.int64)
    for j, i in enumerate(gemm_rows):
        shape = template[i].gemm
        for column, name in enumerate(_GEMM_FIELDS):
            dims[j, :, column] = getattr(shape, name)  # scalars broadcast
    unique, inverse = np.unique(dims.reshape(-1, len(_GEMM_FIELDS)),
                                axis=0, return_inverse=True)
    pool = tuple(
        GemmShape(m=int(row[0]), n=int(row[1]), k=int(row[2]),
                  batch=int(row[3]), transpose_a=bool(row[4]),
                  transpose_b=bool(row[5]), accumulate=bool(row[6]))
        for row in unique)
    codes[np.asarray(gemm_rows)] = inverse.reshape(len(gemm_rows),
                                                   lane_count)
    return codes, pool


def stamp_family(model: BertConfig, trainings: Sequence[TrainingConfig]
                 ) -> tuple[KernelTable, int]:
    """Stack one family's P points into a single point-major table.

    Returns ``(table, rows_per_point)``; point ``j`` (in ``trainings``
    order) owns rows ``[j * rows_per_point, (j + 1) * rows_per_point)``,
    in ``build_iteration_trace`` order.
    """
    lanes = LaneTraining(trainings)
    point_count = len(lanes)
    template, ids, layer = iteration_layout(
        model.num_layers, pretraining_sections(model, lanes))

    # Static per-template-row columns (identical across lanes).
    name_pool: dict[str, int] = {}
    fusion_pool: dict[str, int] = {}
    name_code = np.array(
        [name_pool.setdefault(k.name, len(name_pool)) for k in template],
        dtype=np.int32)
    fusion_code = np.array(
        [-1 if k.fusion_group is None
         else fusion_pool.setdefault(k.fusion_group, len(fusion_pool))
         for k in template], dtype=np.int32)

    def codes(attr: str) -> np.ndarray:
        return np.array([code_of(getattr(k, attr)) for k in template],
                        dtype=np.int8)

    # Numeric (template row, lane) matrices; scalar fields broadcast.
    def matrix(attr: str) -> np.ndarray:
        out = np.empty((len(template), point_count), dtype=np.int64)
        for i, kernel in enumerate(template):
            out[i, :] = getattr(kernel, attr)
        return out

    gemm_matrix, gemms = _pool_gemms(template, point_count)

    def tile(column: np.ndarray) -> np.ndarray:
        """Static column -> stacked P*K column (same values every point)."""
        return np.tile(column[ids], point_count)

    def stack(matrix_: np.ndarray) -> np.ndarray:
        """(template, lane) matrix -> point-major stacked column."""
        return matrix_[ids].T.ravel()

    table = KernelTable(
        name_code=tile(name_code), names=tuple(name_pool),
        op_class=tile(codes("op_class")), phase=tile(codes("phase")),
        component=tile(codes("component")), region=tile(codes("region")),
        dtype=tile(codes("dtype")), access=tile(codes("access")),
        flops=stack(matrix("flops")),
        bytes_read=stack(matrix("bytes_read")),
        bytes_written=stack(matrix("bytes_written")),
        n_elements=stack(matrix("n_elements")),
        layer=np.tile(layer, point_count),
        gemm_code=stack(gemm_matrix), gemms=gemms,
        fusion_code=tile(fusion_code), fusion_groups=tuple(fusion_pool))
    return table, len(ids)
