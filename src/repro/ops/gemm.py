"""GEMM shape records and cost math.

The paper represents a matrix as ``MxN``, a GEMM as ``MxNxK`` (output
``M x N``, contraction over ``K``) and annotates each with transpose flags
and an optional batch count (Fig. 6's labels are
``transposeA, transposeB, M, N, K, [batch]``).  :class:`GemmShape` mirrors
that representation exactly, and supplies the FLOP and byte counts every
other subsystem consumes.

A kernel table pools its shapes as a **dims array** instead: one int64
row of :data:`GEMM_DIMS` per shape (:func:`gemm_dims`).
:func:`dims_flops`, :func:`dims_bytes` and :func:`gemm_label` are the
same cost and label math over those rows, so a whole pool is priced and
labeled without building a :class:`GemmShape` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.ops.base import DType, lanes_any

#: Column order of a GEMM dims array; the flags are stored as 0/1.
GEMM_DIMS = ("m", "n", "k", "batch", "transpose_a", "transpose_b",
             "accumulate")


@dataclass(frozen=True)
class GemmShape:
    """An ``M x N x K`` (batched) GEMM.

    ``C[M, N] (+)= A[M, K] @ B[K, N]``, repeated ``batch`` times for batched
    GEMMs.  Transpose flags describe the *storage* layout of A and B, which
    matters for achieved bandwidth on real devices but not for FLOP/byte
    totals.

    Attributes:
        m, n, k: GEMM dimensions.
        batch: number of independent GEMMs launched as one batched kernel.
        transpose_a, transpose_b: whether A / B are stored transposed.
        accumulate: whether C is read-modify-written (``beta != 0``), as in
            gradient accumulation into weight gradients.
    """

    m: int
    n: int
    k: int
    batch: int = 1
    transpose_a: bool = False
    transpose_b: bool = False
    accumulate: bool = False

    def __post_init__(self) -> None:
        if any(lanes_any(dim <= 0)
               for dim in (self.m, self.n, self.k, self.batch)):
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @classmethod
    def from_dims(cls, row: Iterable[int]) -> "GemmShape":
        """The shape of one :data:`GEMM_DIMS` row (plain Python ints and
        bools, so it hashes equal to an emitter-built shape)."""
        m, n, k, batch, transpose_a, transpose_b, accumulate = (
            int(value) for value in row)
        return cls(m, n, k, batch, bool(transpose_a), bool(transpose_b),
                   bool(accumulate))

    @property
    def dims(self) -> tuple:
        """This shape as one :data:`GEMM_DIMS` row."""
        return (self.m, self.n, self.k, self.batch, int(self.transpose_a),
                int(self.transpose_b), int(self.accumulate))

    # ------------------------------------------------------------------ cost
    @property
    def flops(self) -> int:
        """Multiply-add FLOPs (2 per MAC) across the whole batch."""
        return 2 * self.m * self.n * self.k * self.batch

    def elements(self) -> int:
        """Total elements touched: A + B + C, across the batch."""
        per = self.m * self.k + self.k * self.n + self.m * self.n
        return per * self.batch

    def bytes_read(self, dtype: DType) -> int:
        """Bytes read: both operands, plus C when accumulating."""
        per = self.m * self.k + self.k * self.n
        if self.accumulate:
            per += self.m * self.n
        return per * self.batch * dtype.bytes

    def bytes_written(self, dtype: DType) -> int:
        """Bytes written: the output matrix C."""
        return self.m * self.n * self.batch * dtype.bytes

    def bytes_total(self, dtype: DType) -> int:
        """Total minimum memory traffic (each operand streamed once)."""
        return self.bytes_read(dtype) + self.bytes_written(dtype)

    def arithmetic_intensity(self, dtype: DType) -> float:
        """Ops per byte at minimum traffic (the paper's Fig. 6 metric)."""
        return self.flops / self.bytes_total(dtype)

    # ----------------------------------------------------------------- labels
    @property
    def label(self) -> str:
        """Fig. 6-style label: ``tA, tB, M, N, K[, batch]``."""
        return gemm_label(*self.dims)

    def transposed(self) -> "GemmShape":
        """Shape of the mathematically transposed product (C^T = B^T A^T)."""
        return GemmShape(m=self.n, n=self.m, k=self.k, batch=self.batch,
                         transpose_a=not self.transpose_b,
                         transpose_b=not self.transpose_a,
                         accumulate=self.accumulate)


def gemm_label(m: int, n: int, k: int, batch: int, transpose_a: int,
               transpose_b: int, accumulate: int = 0) -> str:
    """Fig. 6-style label of one :data:`GEMM_DIMS` row."""
    flags = f"{'T' if transpose_a else 'N'}{'T' if transpose_b else 'N'}"
    core = f"{flags},{m},{n},{k}"
    return f"{core},[{batch}]" if batch > 1 else core


def gemm_dims(shapes: Iterable[GemmShape]) -> np.ndarray:
    """``(len(shapes), 7)`` int64 dims array of scalar shapes."""
    return np.array([shape.dims for shape in shapes],
                    dtype=np.int64).reshape(-1, len(GEMM_DIMS))


def dims_flops(dims: np.ndarray) -> np.ndarray:
    """:attr:`GemmShape.flops` of every dims row."""
    m, n, k, batch = dims.T[:4]
    return 2 * m * n * k * batch


def dims_bytes(dims: np.ndarray, element_bytes) -> np.ndarray:
    """:meth:`GemmShape.bytes_total` of every dims row, at the given
    per-row (or scalar) element size."""
    m, n, k, batch, _, _, accumulate = dims.T
    return (m * k + k * n + accumulate * m * n + m * n) * batch \
        * element_bytes


def linear_layer_gemms(d_in: int, d_out: int, tokens: int) -> dict[str, GemmShape]:
    """The three GEMMs of one linear (dense) layer under training.

    Following Table 2b's convention (output-stationary ``M x N x K`` with the
    token count ``n*B`` appearing as the N dimension in FWD):

    * forward:            ``d_out x tokens x d_in``
    * backward activation: ``d_in x tokens x d_out``
    * backward weight:     ``d_in x d_out x tokens`` (accumulated)

    Args:
        d_in: input feature dimension (GEMM ``K`` in FWD).
        d_out: output feature dimension (GEMM ``M`` in FWD).
        tokens: total token count ``n * B``.

    Returns:
        Mapping with keys ``"fwd"``, ``"bwd_act"``, ``"bwd_wt"``.
    """
    return {
        "fwd": GemmShape(m=d_out, n=tokens, k=d_in),
        "bwd_act": GemmShape(m=d_in, n=tokens, k=d_out, transpose_a=True),
        "bwd_wt": GemmShape(m=d_in, n=d_out, k=tokens, transpose_b=True,
                            accumulate=True),
    }


def attention_score_gemms(seq_len: int, d_head: int,
                          batch_heads: int) -> dict[str, GemmShape]:
    """Batched GEMMs of the attention-score computation (Q @ K^T).

    Table 2b row "Attn. Score": forward is ``n x n x d_model/h`` with batch
    ``B*h``; the two backward products exchange the roles of the operands.
    """
    return {
        "fwd": GemmShape(m=seq_len, n=seq_len, k=d_head, batch=batch_heads,
                         transpose_b=True),
        "bwd_act": GemmShape(m=seq_len, n=d_head, k=seq_len,
                             batch=batch_heads),
        "bwd_wt": GemmShape(m=d_head, n=seq_len, k=seq_len,
                            batch=batch_heads, transpose_a=True),
    }


def attention_output_gemms(seq_len: int, d_head: int,
                           batch_heads: int) -> dict[str, GemmShape]:
    """Batched GEMMs of the attention-context computation (scores @ V).

    Table 2b row "Attn. O/p": forward is ``d_model/h x n x n`` with batch
    ``B*h``.
    """
    return {
        "fwd": GemmShape(m=d_head, n=seq_len, k=seq_len, batch=batch_heads),
        "bwd_act": GemmShape(m=d_head, n=seq_len, k=seq_len,
                             batch=batch_heads, transpose_b=True),
        "bwd_wt": GemmShape(m=seq_len, n=seq_len, k=d_head,
                            batch=batch_heads, transpose_a=True),
    }
