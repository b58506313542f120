"""Op recording hooks for trace cross-validation.

The analytic kernel trace (:mod:`repro.trace`) claims BERT's layers manifest
as specific GEMM shapes (Table 2b) at specific precisions.  To keep that
claim honest, the tensor engine reports every executed op here; tests run
the real NumPy model under :func:`record` capture and compare the observed
matmul shapes *and dtypes* against the analytic trace.

Every op records as it executes, from the one chokepoint
:meth:`~repro.tensor.tensor.Tensor._op`; backward-pass ops (the two
matmuls of each GEMM's gradient included) are tensor ops too, so a
capture around ``loss.backward()`` sees them.

Sinks are registered under integer tokens (monotonic, O(1) detach) so
captures nest safely: detaching an outer capture while an inner one is
still active — or vice versa, in any order — never scans or disturbs the
other sinks the way the previous ``list.remove`` bookkeeping could.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class OpRecord:
    """One recorded tensor op.

    Attributes:
        kind: op name (``"matmul"``, ``"add"``, ``"mul"``, ...).
        shapes: operand shapes, in order.
        dtype: NumPy dtype name of the output (``"float32"``), or ``None``
            when the recorder predates dtype reporting.
        out_shape: shape of the produced array, or ``None``.
    """

    kind: str
    shapes: tuple[tuple[int, ...], ...]
    dtype: str | None = None
    out_shape: tuple[int, ...] | None = None

    def matmul_mnk(self) -> tuple[int, int, int, int]:
        """(m, n, k, batch) of a recorded matmul, collapsing batch dims."""
        if self.kind != "matmul":
            raise ValueError("not a matmul record")
        a, b = self.shapes
        m, k = a[-2], a[-1]
        n = b[-1]
        batch = 1
        for dim in a[:-2]:
            batch *= dim
        return m, n, k, batch


#: Active sinks by token.  A dict keeps detach O(1) and nesting-safe; the
#: insertion order (outer capture first) is preserved for record fan-out.
_active: dict[int, list[OpRecord]] = {}
_tokens = itertools.count()


def record(kind: str, *shapes: tuple[int, ...], dtype=None,
           out_shape=None) -> None:
    """Report an executed op to any active recorders (no-op otherwise)."""
    if not _active:
        return
    entry = OpRecord(kind=kind,
                     shapes=tuple(tuple(s) for s in shapes),
                     dtype=None if dtype is None else str(dtype),
                     out_shape=None if out_shape is None else tuple(out_shape))
    for sink in _active.values():
        sink.append(entry)


def attach(sink: list[OpRecord]) -> int:
    """Register ``sink`` to receive records; returns its detach token."""
    token = next(_tokens)
    _active[token] = sink
    return token


def detach(token: int) -> None:
    """Unregister a sink by token (idempotent, O(1))."""
    _active.pop(token, None)


@contextmanager
def capture():
    """Context manager collecting all ops executed inside it.

    Yields:
        The list that fills with :class:`OpRecord` entries.
    """
    sink: list[OpRecord] = []
    token = attach(sink)
    try:
        yield sink
    finally:
        detach(token)


def matmuls(records: list[OpRecord]) -> list[OpRecord]:
    """Only the matmul records of a capture."""
    return [r for r in records if r.kind == "matmul"]
