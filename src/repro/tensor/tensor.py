"""A small reverse-mode autograd engine over NumPy.

This is the executable substrate of the reproduction: enough of a tensor
library to express and *train* BERT end-to-end (matmul and batched matmul,
broadcasting elementwise arithmetic, reductions, shape ops), with gradients
checked against finite differences in the test suite.

Design notes:

* every op flows through one chokepoint, :meth:`Tensor._op`, which runs
  the NumPy kernel immediately and reports it to the op recorder;
* every differentiable op appends a node to an implicit tape via parent
  links; :meth:`Tensor.backward` runs a topological sweep.  The vector-
  Jacobian products are themselves expressed as tensor ops, so backward
  kernels (the two matmuls of every GEMM's gradient) are recorded too;
* broadcasting is handled by summing gradients over broadcast axes
  (:meth:`Tensor._accumulate`);
* an optional op recorder (:mod:`repro.tensor.recording`) observes every
  executed op so tests can cross-validate the analytic kernel trace
  against the shapes and dtypes the model actually executes.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro.tensor import recording

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_tensor_grad", default=True)


@contextmanager
def no_grad():
    """Scope in which ops build no autograd tape (used by backward itself)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _as_array(value, dtype=None) -> np.ndarray:
    array = np.asarray(value)
    if dtype is not None:
        array = array.astype(dtype, copy=False)
    elif array.dtype not in (np.float32, np.float64):
        array = array.astype(np.float64)
    return array


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Attributes:
        data: the underlying :class:`numpy.ndarray`.
        requires_grad: whether gradients flow to this tensor.
        grad: accumulated gradient after :meth:`backward`, or ``None``.
        name: optional label for debugging and parameter registration.
    """

    __slots__ = ("data", "requires_grad", "_grad", "name",
                 "_backward_fn", "_parents")

    def __init__(self, data, *, requires_grad: bool = False,
                 name: str | None = None, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self._grad: Tensor | None = None
        self.name = name
        self._backward_fn: Callable[["Tensor"], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        """Front an already-computed array (no cast, no copy)."""
        out = object.__new__(cls)
        out.data = array
        out.requires_grad = False
        out._grad = None
        out.name = None
        out._backward_fn = None
        out._parents = ()
        return out

    # ------------------------------------------------------------ properties
    @property
    def grad(self) -> np.ndarray | None:
        return None if self._grad is None else self._grad.data

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            self._grad = None
        elif isinstance(value, Tensor):
            self._grad = value
        else:
            self._grad = Tensor._wrap(np.asarray(value))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    # --------------------------------------------------------- graph plumbing
    @staticmethod
    def _op(kind: str, parents: tuple["Tensor", ...], compute: Callable,
            backward_fn: Callable[["Tensor"], None] | None = None, *,
            record_shapes=None) -> "Tensor":
        """The single chokepoint every tensor op flows through.

        Runs ``compute`` on the parents' arrays, reports the executed op
        to the recorder (operand shapes default to the parents' shapes;
        ``record_shapes`` overrides them) and links the output into the
        autograd tape when any parent requires grad.
        """
        arrays = [p.data for p in parents]
        out_data = compute(*arrays)
        shapes = (record_shapes if record_shapes is not None
                  else tuple(a.shape for a in arrays))
        recording.record(kind, *shapes, dtype=out_data.dtype,
                         out_shape=out_data.shape)
        out = Tensor._wrap(out_data)
        if (backward_fn is not None and _GRAD_ENABLED.get()
                and any(p.requires_grad for p in parents)):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _cast_grad(self) -> "Tensor":
        """Mirror ``_as_array``'s float64 fallback as a graph op."""
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad)
        return Tensor._op("cast", (self,),
                          lambda a: a.astype(np.float64, copy=False),
                          backward)

    def _accumulate(self, grad) -> None:
        if not isinstance(grad, Tensor):
            grad = Tensor(grad)  # _as_array: non-f32/f64 input becomes f64
        elif grad.dtype not in (np.float32, np.float64):
            grad = grad._cast_grad()
        shape = self.shape
        if grad.shape != shape:
            while grad.ndim > len(shape):
                grad = grad.sum(axis=0)
            for axis, dim in enumerate(shape):
                if dim == 1 and grad.shape[axis] != 1:
                    grad = grad.sum(axis=axis, keepdims=True)
        if self._grad is None:
            self._grad = grad
        else:
            self._grad = self._grad + grad

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor, computing gradients immediately.

        Args:
            grad: upstream gradient; defaults to ones (and must be provided
                explicitly for non-scalar outputs only by choice — ones is
                used regardless, matching ``sum().backward()`` semantics).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not "
                               "require grad")
        if grad is None:
            grad = Tensor(np.ones(self.shape, dtype=self.dtype))
        elif not isinstance(grad, Tensor):
            grad = Tensor(grad)

        with no_grad():
            self._accumulate(grad)

            ordered: list[Tensor] = []
            seen: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    ordered.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for parent in node._parents:
                    if parent.requires_grad and id(parent) not in seen:
                        stack.append((parent, False))

            for node in reversed(ordered):
                if node._backward_fn is not None and node._grad is not None:
                    node._backward_fn(node._grad)
                    # Free the tape as we go; keeps memory bounded.
                    node._backward_fn = None
                    node._parents = ()

    def zero_grad(self) -> None:
        self._grad = None

    # ------------------------------------------------------------ arithmetic
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(
            _as_array(other, dtype=self.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)
        return Tensor._op("add", (self, other), lambda a, b: a + b, backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(-grad)
        return Tensor._op("neg", (self,), lambda a: -a, backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad * other)
            if other.requires_grad:
                other._accumulate(grad * self)
        return Tensor._op("mul", (self, other), lambda a, b: a * b, backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad / other)
            if other.requires_grad:
                other._accumulate(-grad * self / (other ** 2))
        return Tensor._op("div", (self, other), lambda a, b: a / b, backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self ** (exponent - 1))
        return Tensor._op("pow", (self,), lambda a: a ** exponent, backward)

    # ---------------------------------------------------------- matmul & co.
    def matmul(self, other: "Tensor") -> "Tensor":
        """(Batched) matrix multiplication with full broadcasting."""
        other = self._coerce(other)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(Tensor._op(
                    "matmul_bwd_a", (grad, other),
                    lambda g, o: np.matmul(g, np.swapaxes(o, -1, -2))))
            if other.requires_grad:
                other._accumulate(Tensor._op(
                    "matmul_bwd_b", (self, grad),
                    lambda s, g: np.matmul(np.swapaxes(s, -1, -2), g)))
        return Tensor._op("matmul", (self, other), np.matmul, backward)

    __matmul__ = matmul

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad * out)
        out = Tensor._op("exp", (self,), np.exp, backward)
        return out

    def log(self) -> "Tensor":
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad / self)
        return Tensor._op("log", (self,), np.log, backward)

    def sqrt(self) -> "Tensor":
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out)
        out = Tensor._op("sqrt", (self,), np.sqrt, backward)
        return out

    def tanh(self) -> "Tensor":
        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out ** 2))
        out = Tensor._op("tanh", (self,), np.tanh, backward)
        return out

    def erf(self) -> "Tensor":
        from scipy.special import erf as _erf

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                pdf = 2.0 / np.sqrt(np.pi) * (-(self ** 2)).exp()
                self._accumulate(grad * pdf)
        return Tensor._op("erf", (self,), _erf, backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def expand(g: np.ndarray) -> np.ndarray:
            g = _as_array(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return np.broadcast_to(g, shape)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(Tensor._op("sum_bwd", (grad,), expand))
        return Tensor._op("sum", (self,),
                          lambda a: a.sum(axis=axis, keepdims=keepdims),
                          backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        count = (self.size if axis is None
                 else shape[axis] if isinstance(axis, int)
                 else int(np.prod([shape[a] for a in axis])))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        def grad_compute(g: np.ndarray, a: np.ndarray,
                         o: np.ndarray) -> np.ndarray:
            g = _as_array(g)
            expanded = o if keepdims else np.expand_dims(o, axis)
            mask = (a == expanded)
            # Split gradient between ties, matching subgradient convention.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return mask * g

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(Tensor._op(
                    "max_bwd", (grad, self, out), grad_compute))
        out = Tensor._op("max", (self,),
                         lambda a: a.max(axis=axis, keepdims=keepdims),
                         backward)
        return out

    # -------------------------------------------------------------- shape ops
    def reshape(self, *shape: int) -> "Tensor":
        in_shape = self.shape

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(*in_shape))
        return Tensor._op("reshape", (self,),
                          lambda a: a.reshape(shape), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(*inverse))
        return Tensor._op("transpose", (self,),
                          lambda a: a.transpose(axes), backward)

    def __getitem__(self, index) -> "Tensor":
        def grad_compute(g: np.ndarray, a: np.ndarray) -> np.ndarray:
            full = np.zeros_like(a)
            np.add.at(full, index, g)
            return full

        def backward(grad: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(Tensor._op(
                    "getitem_bwd", (grad, self), grad_compute))
        return Tensor._op("getitem", (self,), lambda a: a[index], backward)


def tensor(data, *, requires_grad: bool = False, dtype=None,
           name: str | None = None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype, name=name)


def zeros(shape, *, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, *, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)
