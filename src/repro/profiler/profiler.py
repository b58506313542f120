"""Simulated kernel profiler.

Plays a :class:`~repro.trace.builder.Trace` through a
:class:`~repro.hw.device.DeviceModel` and produces a per-kernel profile —
the rocProf-equivalent table (time, FLOPs, bytes, achieved bandwidth) that
every breakdown and figure in :mod:`repro.experiments` is computed from.

A profile, like a trace, is a frozen columnar view: :func:`profile_trace`
times the whole trace through the vectorized
:func:`repro.hw.timing.kernel_times` engine and stores just
``(KernelTable, times array)``.  ``time_of`` / ``gemm_time`` /
``total_time`` are always masked array reductions, so a reported number
never depends on what was read before it.  ``time_of`` answers every slice
by phase, component, region, op class and encoder layer from the columns,
and the exporters read ``profile.table`` and ``profile.times`` directly.
The per-record object view (``profile.records``) is explicit: a read-only
tuple built on first read for tests and examples, and for the scan
oracles ``time_where`` / ``fraction_where``, whose arbitrary predicates
the column slices are checked against.  A profile is not iterable and
compares by identity, so nothing builds the view implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.hw.device import DeviceModel
from repro.hw.timing import kernel_times
from repro.obs import spans
from repro.ops.base import Component, Kernel, OpClass, Phase, Region
from repro.trace.kernel_table import KernelTable


@dataclass(frozen=True)
class KernelProfile:
    """One kernel's profiled execution.

    Attributes:
        kernel: the kernel record.
        time_s: modeled execution time in seconds.
    """

    kernel: Kernel
    time_s: float


class Profile:
    """Profiled execution of a whole iteration trace.

    A frozen view over one kernel table and its per-kernel times.

    Attributes:
        device: device the trace was timed on.
        records: per-kernel profiles, in launch order, as a read-only
            tuple built from the columns on first read.
    """

    def __init__(self, device: DeviceModel, table: KernelTable,
                 times: np.ndarray):
        self.device = device
        self._table = table
        times = np.asarray(times, dtype=np.float64)
        times.flags.writeable = False  # views may share it
        self._times = times
        self._records: tuple[KernelProfile, ...] | None = None

    # -------------------------------------------------------- representations
    @property
    def table(self) -> KernelTable:
        """The columnar kernel sequence the times belong to."""
        return self._table

    @property
    def records(self) -> tuple[KernelProfile, ...]:
        """The per-kernel records, built from the columns on first read."""
        if self._records is None:
            self._records = tuple(
                KernelProfile(kernel=k, time_s=float(t))
                for k, t in zip(self._table.to_kernels(), self._times))
        return self._records

    @property
    def times(self) -> np.ndarray:
        """Per-kernel times as a read-only array."""
        return self._times

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:
        return f"Profile(device={self.device.name!r}, kernels={len(self)})"

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # The compact columnar form, so a pickled profile stays small.
        return {"device": self.device, "table": self._table,
                "times": self._times}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["device"], state["table"], state["times"])

    # ------------------------------------------------------------ aggregates
    @property
    def total_time(self) -> float:
        """Serialized iteration time in seconds."""
        return float(np.sum(self._times))

    # ------------------------------------------------------------- selection
    def time_where(self, predicate: Callable[[Kernel], bool]) -> float:
        """Total time of kernels matching ``predicate``."""
        return sum(r.time_s for r in self.records if predicate(r.kernel))

    def time_of(self, *, phase: Phase | tuple[Phase, ...] | None = None,
                component: Component | tuple[Component, ...] | None = None,
                region: Region | tuple[Region, ...] | None = None,
                op_class: OpClass | tuple[OpClass, ...] | None = None,
                layer_index: int | None = None) -> float:
        """Total time of kernels matching the given attribute filters.

        Each enum filter accepts a single member or a tuple of members
        (matched as a set); ``layer_index`` selects one encoder layer.  The
        sum is one masked array reduction.
        """
        mask = self._table.mask(phase=phase, component=component,
                                region=region, op_class=op_class,
                                layer_index=layer_index)
        return float(self._times[mask].sum())

    def fraction_where(self, predicate: Callable[[Kernel], bool]) -> float:
        """Fraction of total time in kernels matching ``predicate``."""
        total = self.total_time
        return self.time_where(predicate) / total if total else 0.0

    def gemm_time(self) -> float:
        """Time in (batched) GEMM kernels."""
        return float(self._times[self._table.is_gemm].sum())

    def non_gemm_time(self) -> float:
        """Time in non-GEMM (memory-bound) kernels."""
        return float(self._times[~self._table.is_gemm].sum())


def profile_trace(trace_kernels: "Iterable[Kernel] | KernelTable",
                  device: DeviceModel) -> Profile:
    """Time every kernel of a trace on ``device``.

    Accepts a :class:`~repro.trace.builder.Trace`, a
    :class:`KernelTable`, or any kernel iterable; timing runs through the
    single vectorized entry point :func:`repro.hw.timing.kernel_times`.
    """
    table = KernelTable.coerce(trace_kernels)
    with spans.span("profile.trace", kernels=len(table),
                    device=device.name):
        return Profile(device=device, table=table,
                       times=kernel_times(table, device))
