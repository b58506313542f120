"""Generic sweep utilities and CSV export of experiment results.

Every experiment module returns dataclass rows; these helpers flatten them
into CSV so results can be plotted or diffed outside the repository, and
provide a generic grid sweep over (model, training) parameters for ad-hoc
studies.  The grid's model table and axis validation live here too, so
``repro grid`` and ``POST /grid`` accept and reject the same input.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import os
import re
from typing import TYPE_CHECKING, Callable, Iterable

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, C1, C2, C3,
                          BertConfig, Precision, TrainingConfig)

if TYPE_CHECKING:  # annotation only: the CLI parser imports this module
    from repro.hw.device import DeviceModel

#: Architectures a grid sweep can name (``repro grid --model``, ``POST
#: /grid``'s ``model``).
GRID_MODELS: dict[str, BertConfig] = {
    "bert-tiny": BERT_TINY, "bert-base": BERT_BASE,
    "bert-large": BERT_LARGE, "c1": C1, "c2": C2, "c3": C3,
}

#: Precision names a grid axis accepts; ``fp16`` is an alias of mixed.
GRID_PRECISIONS: dict[str, Precision] = {
    "fp32": Precision.FP32, "mixed": Precision.MIXED,
    "fp16": Precision.MIXED,
}


def _flatten(value, prefix: str = "") -> dict[str, object]:
    """Flatten dataclasses/dicts/sequences/enums into scalar CSV cells."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            out.update(_flatten(getattr(value, field.name),
                                f"{prefix}{field.name}."))
        return out
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}{key}."))
        return out
    if isinstance(value, (list, tuple)):
        # Indexed columns (``field.0``, ``field.1``, ...) instead of one
        # stringified cell, so per-element values stay machine-readable.
        out = {}
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}{index}."))
        return out
    if hasattr(value, "value") and hasattr(type(value), "__members__"):
        return {prefix.rstrip("."): value.value}  # Enum
    if isinstance(value, (int, float, str, bool)) or value is None:
        return {prefix.rstrip("."): value}
    return {prefix.rstrip("."): str(value)}


def rows_to_csv(rows: Iterable[object]) -> str:
    """Render experiment dataclass rows as CSV.

    Columns are the union of flattened fields, in first-seen order.
    """
    flat_rows = [_flatten(row) for row in rows]
    if not flat_rows:
        raise ValueError("no rows to export")
    columns: list[str] = []
    for flat in flat_rows:
        for key in flat:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    for flat in flat_rows:
        writer.writerow(flat)
    return buffer.getvalue()


def write_output(path: str, render: Callable[[], bytes]) -> None:
    """Write ``render()`` to ``path``, opening the path first.

    The path is opened (or created) before ``render`` runs, so an
    unwritable path raises ``OSError`` without paying for the
    computation.  The file is truncated only once ``render`` returns: if
    it raises, a file this call created is removed and a file that
    already existed keeps its bytes.
    """
    created = not os.path.exists(path)
    open(path, "ab").close()
    try:
        content = render()
    except BaseException:
        if created:
            os.remove(path)
        raise
    with open(path, "wb") as handle:
        handle.write(content)


def export_experiment_csv(experiment_id: str, path: str) -> None:
    """Run a registered experiment and write its rows as CSV.

    Only experiments whose ``run`` returns a list of dataclasses are
    exportable; others raise ``TypeError``.
    """
    from repro.experiments.registry import REGISTRY

    experiment = REGISTRY[experiment_id]

    def render() -> bytes:
        result = experiment.run()
        if not isinstance(result, list):
            raise TypeError(f"experiment {experiment_id!r} does not "
                            "return a row list")
        return rows_to_csv(result).encode()

    write_output(path, render)


def _point_columns(training: TrainingConfig) -> dict[str, object]:
    """The identifying columns every sweep row starts with."""
    return {
        "label": training.label,
        "batch_size": training.batch_size,
        "seq_len": training.seq_len,
        "tokens": training.tokens_per_iteration,
    }


def _error_row(training: TrainingConfig, error: Exception
               ) -> dict[str, object]:
    """Structured row for a point that failed to profile."""
    return {
        **_point_columns(training),
        "error": f"{type(error).__name__}: {error}",
    }


def _sweep_row(model: BertConfig, training: TrainingConfig,
               device: DeviceModel | None) -> dict[str, object]:
    """Summary dict of one sweep point, profiled on its own."""
    # Lazy: the CLI parser imports this module for the grid tables.
    from repro.experiments.common import run_point
    from repro.profiler.breakdown import summarize

    _, profile = run_point(model, training, device)
    return {**_point_columns(training), **summarize(profile)}


def grid_sweep(model: BertConfig,
               trainings: Iterable[TrainingConfig],
               device: DeviceModel | None = None, *,
               key: str | None = None) -> list[dict[str, object]]:
    """Profile every training point; return one summary dict per point.

    The sweep goes through the batched grid engine
    (:func:`repro.grid.engine.grid_summaries`): the whole grid is stamped
    into one KernelTable and priced in a single timing evaluation, with
    one disk-cache entry per grid signature.

    A point that fails to profile does not abort the sweep.  It poisons
    the whole stamped grid, so the sweep falls back to profiling point by
    point: the failing point's row is a structured error entry
    (``label``/``batch_size``/``seq_len``/``tokens`` plus an ``error``
    column) and every other point's row survives.  Rows come back in
    ``trainings`` order.

    Args:
        model: architecture to sweep.
        trainings: training points.
        device: device model (default MI100-like).
        key: the grid's :meth:`~repro.runner.cache.ResultCache.grid_key`
            on ``device``, if the caller already hashed it.
    """
    from repro.grid.engine import grid_points, grid_summaries

    trainings = list(trainings)
    if trainings:
        try:
            summaries = grid_summaries(grid_points(model, trainings),
                                       device, key=key)
        except Exception:
            pass
        else:
            return [{**_point_columns(training), **summary}
                    for training, summary in zip(trainings, summaries)]
    rows = []
    for training in trainings:
        try:
            rows.append(_sweep_row(model, training, device))
        except Exception as error:
            rows.append(_error_row(training, error))
    return rows


def _axis_int(value) -> int:
    """An ``int`` that is not a ``bool``, or a decimal string (the CLI's)."""
    if type(value) not in (int, str) or not re.fullmatch(
            r"\s*[+-]?[0-9]+\s*", str(value)):
        raise TypeError(value)
    return int(value)


def parse_grid_axes(batch_sizes: list | tuple, seq_lens: list | tuple,
                    precisions: list | tuple
                    ) -> tuple[list[int], list[int], list[Precision]]:
    """Validate the three axes of a grid sweep.

    Each axis is a non-empty list or tuple: batch sizes and sequence
    lengths of positive integers, precisions of :data:`GRID_PRECISIONS`.

    Raises:
        ValueError: with a one-line message naming what is wrong.
    """
    if not all(isinstance(axis, (list, tuple))
               for axis in (batch_sizes, seq_lens, precisions)):
        raise ValueError("each grid axis must be a list")
    try:
        batches = [_axis_int(b) for b in batch_sizes]
        lengths = [_axis_int(n) for n in seq_lens]
        precs = [GRID_PRECISIONS[str(p).strip().lower()] for p in precisions]
    except (KeyError, TypeError, ValueError):
        raise ValueError("batch sizes and seq lens must be integers, "
                         f"precisions from {','.join(GRID_PRECISIONS)}"
                         ) from None
    if not (batches and lengths and precs):
        raise ValueError("empty grid axis")
    if min(batches) <= 0 or min(lengths) <= 0:
        raise ValueError("batch sizes and seq lens must be positive")
    return batches, lengths, precs


def cross_product(batch_sizes: Iterable[int], seq_lens: Iterable[int],
                  precisions, **overrides) -> list[TrainingConfig]:
    """Build the cross product of training points for :func:`grid_sweep`."""
    points = []
    for batch, seq_len, precision in itertools.product(batch_sizes,
                                                       seq_lens,
                                                       precisions):
        points.append(TrainingConfig(batch_size=batch, seq_len=seq_len,
                                     precision=precision, **overrides))
    return points
