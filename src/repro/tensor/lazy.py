"""Lazy dataflow graph underlying the tensor engine.

Under :func:`lazy_mode`, tensor ops build :class:`LazyOp` dataflow nodes
instead of calling NumPy immediately; the scheduler
(:mod:`repro.tensor.schedule`) linearizes the graph and executes the NumPy
kernels in one deterministic order.  Eager execution stays the golden
oracle: losses, gradients and recorded op streams are bit-identical
between the two modes.

Design notes (tinygrad-shaped, NumPy-sized):

* Node identifiers (``nid``) are allocated from one monotonic counter at
  construction time.  Sources are always constructed before consumers, so
  ``sorted(nodes, key=nid)`` is simultaneously a valid topological order
  and a deterministic one — the scheduler needs no explicit DFS ordering.
* A node is either a **buffer** (``kind == "buffer"``: a realized array)
  or an **op** (``compute`` maps source arrays to the output array).
  Only op nodes become schedule items.
* ``owner`` is a weak reference to the :class:`~repro.tensor.tensor.Tensor`
  fronting the node.  Together with ``_pending`` (how many constructed
  consumers have not yet executed) it drives buffer reuse: once every
  consumer has run and no live tensor can mint new consumers, the
  scheduler drops the realized array.
* Laziness is scoped with a :class:`contextvars.ContextVar`, so it nests
  and propagates correctly across the server's worker threads.
"""

from __future__ import annotations

import contextvars
import itertools
import weakref
from contextlib import contextmanager
from typing import Callable

#: Kind string reserved for leaf buffers (inputs, parameters, constants).
BUFFER = "buffer"

_NIDS = itertools.count()

_LAZY: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_tensor_lazy", default=False)


def is_lazy() -> bool:
    """Whether tensor ops currently build graph nodes instead of executing."""
    return _LAZY.get()


@contextmanager
def lazy_mode(enabled: bool = True):
    """Scope within which tensor ops append :class:`LazyOp` nodes.

    The default mode is eager (realize-on-construction), which is the
    golden oracle: gradients, losses and kernel streams must be
    bit-identical between the two modes.
    """
    token = _LAZY.set(bool(enabled))
    try:
        yield
    finally:
        _LAZY.reset(token)


class LazyOp:
    """One node of the lazy dataflow graph.

    Attributes:
        nid: monotonically increasing id; doubles as the topological key.
        kind: op name (``"matmul"``, ``"softmax"``, ...) or :data:`BUFFER`.
        srcs: source nodes, in operand order.
        shape: inferred output shape (known without executing).
        dtype: inferred output NumPy dtype.
        compute: maps realized source arrays to the output array
            (``None`` for buffers).
        record_shapes: operand shapes reported to
            :mod:`repro.tensor.recording` when the node executes.
        realized: the output array once executed (or ``None``).
    """

    __slots__ = ("nid", "kind", "srcs", "shape", "dtype", "compute",
                 "record_shapes", "realized", "owner", "_pending",
                 "__weakref__")

    def __init__(self, kind: str, srcs: tuple["LazyOp", ...], shape, dtype,
                 compute: Callable | None, *, record_shapes=None):
        self.nid = next(_NIDS)
        self.kind = kind
        self.srcs = srcs
        self.shape = tuple(shape)
        self.dtype = dtype
        self.compute = compute
        self.record_shapes = record_shapes
        self.realized = None
        self.owner = None
        self._pending = 0
        for src in srcs:
            src._pending += 1

    # ------------------------------------------------------------- helpers
    @property
    def is_buffer(self) -> bool:
        return self.kind == BUFFER

    def set_owner(self, tensor) -> None:
        """Weakly link the tensor fronting this node (for buffer reuse)."""
        self.owner = weakref.ref(tensor)

    def owner_alive(self) -> bool:
        return self.owner is not None and self.owner() is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "realized" if self.realized is not None else "pending"
        return (f"LazyOp(nid={self.nid}, kind={self.kind!r}, "
                f"shape={self.shape}, {state})")


def buffer(array) -> LazyOp:
    """A realized leaf node wrapping ``array``."""
    node = LazyOp(BUFFER, (), array.shape, array.dtype, None)
    node.realized = array
    return node
