"""Batched grid-profiling engine.

Stamps a whole sweep grid — many ``(model, B, n, dtype)`` operating
points — into blocks of distinct :class:`~repro.trace.kernel_table.
KernelTable` rows with per-point row layouts, and prices the entire grid
with a single :func:`repro.hw.timing.kernel_times` call over those rows.
A point is a grid of one: families go through the builder's own
assembler and per-point pass pipeline
(:func:`repro.trace.bert_trace.stamp_layout`,
:func:`repro.trace.passes.point_pipeline`), so per-point results are
bit-exact against the :func:`repro.experiments.common.run_point` loop.

Layering: this package sits with :mod:`repro.trace` / :mod:`repro.hw`,
below :mod:`repro.experiments` — the sweep/figure modules call into it.
"""

from repro.grid.engine import (GridPoint, GridProfile, GridTrace,
                               build_grid_trace, grid_points, grid_summaries,
                               profile_grid)
from repro.grid.lanes import LaneTraining, family_key

__all__ = [
    "GridPoint", "GridProfile", "GridTrace", "LaneTraining",
    "build_grid_trace", "family_key", "grid_points", "grid_summaries",
    "profile_grid",
]
