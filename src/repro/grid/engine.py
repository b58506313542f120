"""Grid traces: whole sweep grids profiled from their distinct rows.

:func:`build_grid_trace` groups points into stamp families
(:func:`~repro.grid.lanes.family_key`) and lays each family out once
through the builder's own :func:`~repro.trace.bert_trace.stamp_layout`
over lane-vectorized emitters.  A family keeps only its *distinct* rows
— P·T lane template rows and one optimizer tail, not P·R laid-out rows:
the N encoder layers of a point repeat one template — and the ``(P, R)``
row ids that lay them out; a point whose
:func:`~repro.trace.passes.point_pipeline` rewrites it keeps its own
rows.  The GEMM shapes of every lane stay in the table's dims pool:
stamping builds no per-shape record, however many points a family holds.
:func:`profile_grid` then prices every distinct row with a **single**
:func:`~repro.hw.timing.kernel_times` call — one dense dedupe of
(GEMM shape, dtype) pairs covers every point — gathers the times into
each point's contiguous row range, and hands back per-point
:class:`~repro.profiler.profiler.Profile` views that are bit-exact
against the :func:`~repro.experiments.common.run_point` loop.

:func:`grid_summaries` is the sweep-facing entry point: one disk-cache
entry per grid signature (:meth:`~repro.runner.cache.ResultCache.
grid_key`), per-point breakdown rows positionally aligned with the input.
The rows come from :meth:`GridProfile.summaries`, one
:func:`~repro.profiler.breakdown.summary_rows` reduction per
:class:`Block` of same-structure points, under one span per grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.config import BertConfig, TrainingConfig
from repro.grid.lanes import LaneTraining, family_key
from repro.hw.device import DeviceModel, default_device
from repro.hw.timing import kernel_times
from repro.obs import metrics, spans
from repro.profiler.profiler import Profile
from repro.runner.cache import POINT_KERNELS, POINT_RESOLUTIONS, get_cache
from repro.trace.bert_trace import (lay_out, pretraining_sections,
                                     stamp_layout)
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.passes import PassManager, point_pipeline

_GRIDS = metrics.counter(
    "grid_engine.grids", "whole grids profiled through the batched engine")
_POINTS = metrics.counter(
    "grid_engine.points", "operating points priced via grid stamping")


@dataclass(frozen=True)
class GridPoint:
    """One operating point of a grid: a model at a training configuration."""

    model: BertConfig
    training: TrainingConfig


def grid_points(model: BertConfig,
                trainings: Iterable[TrainingConfig]) -> list[GridPoint]:
    """Convenience: one model crossed with many training configs."""
    return [GridPoint(model, training) for training in trainings]


def _normalize(points: Iterable) -> tuple[GridPoint, ...]:
    """Accept GridPoints or (model, training) pairs; reject empty grids."""
    normalized = []
    for point in points:
        if isinstance(point, GridPoint):
            normalized.append(point)
        else:
            model, training = point
            normalized.append(GridPoint(model, training))
    if not normalized:
        raise ValueError("a grid needs at least one point")
    return tuple(normalized)


class Block(NamedTuple):
    """Points whose rows share one structure, and the rows they are
    priced from.

    ``source`` holds the block's *distinct* rows: a stamped family's
    P·T lane template plus its optimizer tail, or the rows a point's
    pass pipeline produced.  Row ``r`` of the ``j``-th point (input
    order ``indices[j]``) is ``source`` row ``layout[j, r]``, and sits at
    ``start + j * rows + r`` of the stacked grid; ``layer`` is the
    ``(rows,)`` layer stamp every point shares.  A stamped family
    without a pass pipeline is one block, and a point whose pipeline ran
    on its own rows is a block of one with an identity layout.
    """

    indices: np.ndarray
    start: int
    source: KernelTable
    layout: np.ndarray
    layer: np.ndarray

    @property
    def rows(self) -> int:
        """Rows per point."""
        return self.layout.shape[1]

    def point_table(self, j: int) -> KernelTable:
        """The ``j``-th point's ``rows``-row table."""
        return lay_out(self.source, self.layout[j:j + 1], self.layer)

    def table(self) -> KernelTable:
        """Every point's rows, point after point."""
        return lay_out(self.source, self.layout, self.layer)


class GridTrace:
    """P points laid out back to back, each point's rows contiguous.

    ``starts``/``stops`` give each point's half-open row range in input
    order and ``blocks`` cover every point once, in stacking order;
    ``kernels`` is the total row count.  The stacked ``table`` and its
    ``point_index`` (every row labeled with its owning point, int32) are
    built on first read: pricing and summary rows need only the blocks.
    """

    def __init__(self, points: tuple[GridPoint, ...], starts: np.ndarray,
                 stops: np.ndarray, blocks: tuple[Block, ...]):
        self.points = points
        self.starts = starts
        self.stops = stops
        self.blocks = blocks
        self.kernels = sum(block.layout.size for block in blocks)

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def table(self) -> KernelTable:
        """The whole grid as one stacked KernelTable."""
        pieces = [block.table() for block in self.blocks]
        return pieces[0] if len(pieces) == 1 else KernelTable.concat(pieces)

    @functools.cached_property
    def point_index(self) -> np.ndarray:
        """The owning point of every row of :attr:`table`."""
        order = np.concatenate([block.indices for block in self.blocks])
        counts = self.stops[order] - self.starts[order]
        return np.repeat(order.astype(np.int32), counts)

    def point_rows(self, index: int) -> tuple[int, int]:
        """Half-open row range ``[start, stop)`` of one point."""
        return int(self.starts[index]), int(self.stops[index])

    def point_table(self, index: int) -> KernelTable:
        """One point's rows as a pool-sharing KernelTable view."""
        start, stop = self.point_rows(index)
        return self.table.take(slice(start, stop))

    def point_trace(self, index: int) -> Trace:
        """One point's rows wrapped as a regular columnar Trace."""
        point = self.points[index]
        return Trace(point.model, point.training, self.point_table(index))


def build_grid_trace(points: Iterable, *,
                     passes: PassManager | None = None) -> GridTrace:
    """Stamp a whole grid into blocks of distinct rows and row layouts.

    Each family is laid out once, however many points it holds, and
    keeps only its distinct rows (:func:`~repro.trace.bert_trace.
    stamp_layout`).  Passes see one point's rows at a time, so window
    and pairing logic cannot leak across point boundaries.  Row ranges
    come back in *input* order even though stamping proceeds family by
    family.
    """
    points = _normalize(points)
    with spans.span("grid.build", points=len(points)):
        families: dict[tuple, tuple[list[int], list[TrainingConfig]]] = {}
        for index, point in enumerate(points):
            key = family_key(point.model, point.training)
            indices, trainings = families.setdefault(key, ([], []))
            indices.append(index)
            trainings.append(point.training)

        blocks: list[Block] = []
        offset = 0
        for key, (indices, trainings) in families.items():
            model = key[0]
            with spans.span("grid.stamp", model=model.name,
                            points=len(trainings)):
                source, layout, layer = stamp_layout(
                    model.num_layers,
                    *pretraining_sections(model, LaneTraining(trainings)))
                spans.annotate(kernels=layout.size, priced=len(source))
            family = Block(np.array(indices), offset, source, layout, layer)
            # A family shares its checkpointing flag, hence its pipeline.
            pipeline = point_pipeline(trainings[0], passes)
            if not pipeline.passes:
                blocks.append(family)
                offset += layout.size
                continue
            for j, (index, training) in enumerate(zip(indices, trainings)):
                sub = pipeline.run_table(family.point_table(j), model,
                                         training)
                blocks.append(Block(np.array([index]), offset, sub,
                                    np.arange(len(sub))[None, :], sub.layer))
                offset += len(sub)

        starts, stops = np.empty((2, len(points)), dtype=np.int64)
        for block in blocks:
            count = len(block.indices)
            first = block.start + block.rows * np.arange(count)
            starts[block.indices], stops[block.indices] = (first,
                                                           first + block.rows)
        grid = GridTrace(points, starts, stops, tuple(blocks))
        spans.annotate(kernels=grid.kernels, families=len(families))
    return grid


class GridProfile:
    """One timing array covering a whole grid, sliceable per point.

    Every per-point accessor reduces over the *same contiguous slice* the
    loop path's Profile would hold, so totals and masked breakdowns match
    :func:`~repro.experiments.common.run_point` bit for bit.
    """

    def __init__(self, trace: GridTrace, device: DeviceModel,
                 times: np.ndarray):
        self.trace = trace
        self.device = device
        times = np.asarray(times, dtype=np.float64)
        times.flags.writeable = False
        self.times = times

    def __len__(self) -> int:
        return len(self.trace)

    @property
    def points(self) -> tuple[GridPoint, ...]:
        return self.trace.points

    def point_profile(self, index: int) -> Profile:
        """One point's rows + times as a regular columnar Profile."""
        start, stop = self.trace.point_rows(index)
        return Profile(self.device, table=self.trace.point_table(index),
                       times=self.times[start:stop])

    def point_total(self, index: int) -> float:
        """One point's iteration time in seconds."""
        start, stop = self.trace.point_rows(index)
        return float(np.sum(self.times[start:stop]))

    def summaries(self) -> list[dict[str, float]]:
        """Every point's :func:`~repro.profiler.breakdown.summarize` row,
        in input order: one block reduction per :class:`Block`, not one
        profile per point."""
        from repro.profiler.breakdown import summary_rows

        rows: list = [None] * len(self)
        with spans.span("grid.summarize", points=len(self),
                        blocks=len(self.trace.blocks)):
            for block in self.trace.blocks:
                times = self.times[block.start:block.start + block.layout.size]
                for index, row in zip(block.indices.tolist(), summary_rows(
                        times.reshape(block.layout.shape),
                        block.point_table(0))):
                    rows[index] = row
        return rows


def profile_grid(points: Iterable, device: DeviceModel | None = None, *,
                 passes: PassManager | None = None) -> GridProfile:
    """Build and price a whole grid with one batched timing evaluation.

    Only each block's distinct rows are priced; one gather per block then
    lays their times out point after point, into one C-contiguous array.
    """
    grid = build_grid_trace(points, passes=passes)
    if device is None:
        device = default_device()
    with spans.span("grid.profile", points=len(grid), kernels=grid.kernels,
                    device=device.name):
        sources = [block.source for block in grid.blocks]
        priced = (sources[0] if len(sources) == 1
                  else KernelTable.concat(sources))
        spans.annotate(priced=len(priced))
        distinct = kernel_times(priced, device)
        times = np.empty(grid.kernels, dtype=np.float64)
        offset = 0
        for block, source in zip(grid.blocks, sources):
            # mode="clip" skips the bounds pass that buffers ``out``: the
            # layout's ids index the source's rows by construction.
            np.take(distinct[offset:offset + len(source)], block.layout,
                    out=times[block.start:block.start + block.layout.size]
                    .reshape(block.layout.shape), mode="clip")
            offset += len(source)
    _GRIDS.inc()
    _POINTS.inc(len(grid))
    POINT_RESOLUTIONS.inc(len(grid), result="miss")
    POINT_KERNELS.inc(grid.kernels)
    return GridProfile(grid, device, times)


def grid_summaries(points: Iterable, device: DeviceModel | None = None, *,
                   passes: PassManager | None = None,
                   key: str | None = None) -> list[dict]:
    """Per-point breakdown rows for a whole grid, disk-cached as one entry.

    Rows are :func:`repro.profiler.breakdown.summarize` dicts,
    positionally aligned with ``points``.  The cache entry is keyed on the
    full grid signature (:meth:`~repro.runner.cache.ResultCache.grid_key`)
    — any point, the device, the code, or the pass pipeline changing
    invalidates it.  A caller that has already hashed that signature
    passes it as ``key``, so the grid is hashed once.
    """
    points = _normalize(points)
    if device is None:
        device = default_device()
    cache = get_cache()
    if key is None:
        pipeline = passes.signature if passes is not None else ""
        key = cache.grid_key(((p.model, p.training) for p in points),
                             device, pipeline=pipeline)
    payload = cache.get_payload(key)
    if payload is not None:
        POINT_RESOLUTIONS.inc(len(payload["kernels"]), result="hit")
        POINT_KERNELS.inc(sum(payload["kernels"]))
        return [dict(row) for row in payload["rows"]]

    profile = profile_grid(points, device, passes=passes)
    rows = profile.summaries()
    kernels = (profile.trace.stops - profile.trace.starts).tolist()
    cache.put_payload(key, {"rows": rows, "kernels": kernels})
    return [dict(row) for row in rows]
