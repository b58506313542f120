"""The trace container.

A :class:`Trace` is the ordered kernel sequence of one training iteration —
the software-side analogue of the rocProf kernel trace the paper collects
(Sec. 3.1.4).  It knows nothing about time; devices assign that later.

A trace is a frozen view over one
:class:`~repro.trace.kernel_table.KernelTable`: the layer-templated
generators produce the table, transform passes (:mod:`repro.trace.passes`)
rewrite it and wrap the result in a new view, and every query and
aggregate is an array operation over its columns.  ``trace.kernels`` is a
read-only tuple of :class:`~repro.ops.base.Kernel` objects, built from the
table on first read for callers that want per-kernel objects (tests,
examples, ad-hoc inspection); nothing is ever written back.  The
view is explicit: a trace is not iterable and compares by identity, so no
``for`` or ``==`` builds it.  Because tables are immutable, any number of
views can share one.
"""

from __future__ import annotations

from typing import Callable

from repro.config import BertConfig, TrainingConfig
from repro.ops.base import Component, Kernel, OpClass, Phase, Region
from repro.trace.kernel_table import KernelTable


class Trace:
    """Ordered kernel sequence of one training iteration.

    Attributes:
        model: model configuration the trace was generated for.
        training: training operating point.
        table: the columnar kernel sequence, in launch order.
        kernels: the same sequence as a tuple of kernel objects.
    """

    def __init__(self, model: BertConfig, training: TrainingConfig,
                 table: KernelTable):
        self.model = model
        self.training = training
        self._table = table
        self._kernels: tuple[Kernel, ...] | None = None
        self._totals: tuple[int, int] | None = None

    # -------------------------------------------------------- representations
    @property
    def table(self) -> KernelTable:
        """The columnar form every query and aggregate reads."""
        return self._table

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """The kernel objects, built from the table on first read."""
        if self._kernels is None:
            self._kernels = tuple(self._table.to_kernels())
        return self._kernels

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (f"Trace(model={self.model.name!r}, "
                f"training={self.training.label!r}, kernels={len(self)})")

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # Only the compact columnar form: a pickled trace is then a
        # handful of arrays + pools instead of thousands of objects.
        return {"model": self.model, "training": self.training,
                "table": self._table}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["model"], state["training"], state["table"])

    # ------------------------------------------------------------- selection
    def select(self, *, phase: Phase | None = None,
               component: Component | None = None,
               region: Region | None = None,
               op_class: OpClass | None = None,
               layer_index: int | None = None,
               predicate: Callable[[Kernel], bool] | None = None
               ) -> list[Kernel]:
        """Kernels matching all the given filters."""
        mask = self._table.mask(phase=phase, component=component,
                                region=region, op_class=op_class,
                                layer_index=layer_index)
        kernels = self._table.kernels_at(mask.nonzero()[0])
        if predicate is not None:
            kernels = [k for k in kernels if predicate(k)]
        return kernels

    def gemms(self) -> list[Kernel]:
        """All (batched) GEMM kernels."""
        return self._table.kernels_at(self._table.is_gemm.nonzero()[0])

    def non_gemms(self) -> list[Kernel]:
        """All non-GEMM kernels."""
        return self._table.kernels_at((~self._table.is_gemm).nonzero()[0])

    # ------------------------------------------------------------ aggregates
    def _aggregates(self) -> tuple[int, int]:
        """(total flops, total bytes), computed once per view.

        Sweeps call these per operating point and per report row, so
        recomputing the sums on every access was quadratic over a session.
        """
        if self._totals is None:
            self._totals = (int(self._table.flops.sum()),
                            int(self._table.bytes_total.sum()))
        return self._totals

    @property
    def total_flops(self) -> int:
        return self._aggregates()[0]

    @property
    def total_bytes(self) -> int:
        return self._aggregates()[1]

    def kernel_count(self, **filters) -> int:
        """Number of kernels matching :meth:`select` filters."""
        if "predicate" in filters:
            return len(self.select(**filters))
        return int(self._table.mask(**filters).sum())
