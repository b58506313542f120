"""Grid traces: whole sweep grids profiled as one stacked KernelTable.

:func:`build_grid_trace` groups points into stamp families
(:func:`~repro.grid.lanes.family_key`), lays each family out once through
the builder's own :func:`~repro.trace.bert_trace.layout_table` over
lane-vectorized emitters, runs each point's
:func:`~repro.trace.passes.point_pipeline` on its own row slice, and
concatenates everything into one table with per-point row ranges.  The
GEMM shapes of every lane stay in the table's dims pool: stamping builds
no per-shape record, however many points a family holds.
:func:`profile_grid` then prices the whole grid with a **single**
:func:`~repro.hw.timing.kernel_times` call — one dense dedupe of
(GEMM shape, dtype) pairs covers every point — and hands back per-point
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
from repro.trace.bert_trace import layout_table, pretraining_sections
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
    """Points whose rows share one structure, stacked back to back.

    The rows of ``indices[j]`` (input order) are
    ``[start + j * rows, start + (j + 1) * rows)``: a stamped family
    without a pass pipeline is one block, and a point whose pipeline ran
    on its own rows is a block of one.
    """

    indices: np.ndarray
    start: int
    rows: int


class GridTrace:
    """P points stamped into one stacked table, each point's rows contiguous.

    ``point_index`` labels every row with its owning point (int32, the
    ``point`` column sweeps export); ``starts``/``stops`` give each
    point's half-open row range in input order; ``blocks`` cover every
    point once, in stacking order.
    """

    def __init__(self, points: tuple[GridPoint, ...], table: KernelTable,
                 point_index: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray, blocks: tuple[Block, ...]):
        self.points = points
        self.table = table
        self.point_index = point_index
        self.starts = starts
        self.stops = stops
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.points)

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
    """Stamp a whole grid into one stacked KernelTable.

    Each family is laid out once, however many points it holds.  Passes
    see one point's rows at a time, so window and pairing logic cannot
    leak across point boundaries.  Row ranges come back in *input* order
    even though stamping proceeds family by family.
    """
    points = _normalize(points)
    with spans.span("grid.build", points=len(points)):
        families: dict[tuple, tuple[list[int], list[TrainingConfig]]] = {}
        for index, point in enumerate(points):
            key = family_key(point.model, point.training)
            indices, trainings = families.setdefault(key, ([], []))
            indices.append(index)
            trainings.append(point.training)

        pieces: list[KernelTable] = []
        blocks: list[Block] = []
        offset = 0
        for key, (indices, trainings) in families.items():
            model = key[0]
            with spans.span("grid.stamp", model=model.name,
                            points=len(trainings)):
                table = layout_table(model.num_layers, *pretraining_sections(
                    model, LaneTraining(trainings)))
                spans.annotate(kernels=len(table))
            rows_per_point = len(table) // len(trainings)
            # A family shares its checkpointing flag, hence its pipeline.
            pipeline = point_pipeline(trainings[0], passes)
            if not pipeline.passes:
                pieces.append(table)
                blocks.append(Block(np.array(indices), offset,
                                    rows_per_point))
                offset += len(table)
                continue
            for j, (index, training) in enumerate(zip(indices, trainings)):
                rows = slice(j * rows_per_point, (j + 1) * rows_per_point)
                sub = pipeline.run_table(table.take(rows), model, training)
                pieces.append(sub)
                blocks.append(Block(np.array([index]), offset, len(sub)))
                offset += len(sub)

        stacked = pieces[0] if len(pieces) == 1 else KernelTable.concat(pieces)
        order = np.concatenate([block.indices for block in blocks])
        counts = np.repeat([block.rows for block in blocks],
                           [len(block.indices) for block in blocks])
        ends = np.cumsum(counts)
        starts, stops = np.empty((2, len(points)), dtype=np.int64)
        starts[order], stops[order] = ends - counts, ends
        point_index = np.repeat(order.astype(np.int32), counts)
        spans.annotate(kernels=len(stacked), families=len(families))
    return GridTrace(points, stacked, point_index, starts, stops,
                     tuple(blocks))


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

        table = self.trace.table
        rows: list = [None] * len(self)
        with spans.span("grid.summarize", points=len(self),
                        blocks=len(self.trace.blocks)):
            for block in self.trace.blocks:
                count = len(block.indices)
                times = self.times[block.start:
                                   block.start + count * block.rows]
                structure = table.take(slice(block.start,
                                             block.start + block.rows))
                for index, row in zip(block.indices.tolist(), summary_rows(
                        times.reshape(count, block.rows), structure)):
                    rows[index] = row
        return rows


def profile_grid(points: Iterable, device: DeviceModel | None = None, *,
                 passes: PassManager | None = None) -> GridProfile:
    """Build and price a whole grid with one batched timing evaluation."""
    grid = build_grid_trace(points, passes=passes)
    if device is None:
        device = default_device()
    with spans.span("grid.profile", points=len(grid),
                    kernels=len(grid.table), device=device.name):
        times = kernel_times(grid.table, device)
    _GRIDS.inc()
    _POINTS.inc(len(grid))
    POINT_RESOLUTIONS.inc(len(grid), result="miss")
    POINT_KERNELS.inc(len(grid.table))
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
