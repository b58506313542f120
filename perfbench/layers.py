"""Spans around each layer's public functions, recorded from outside.

:func:`install` replaces the public entry points of the program's layers
with thin wrappers that record one span per call: name, start, end, the
span that caused it and the request it belongs to.  Nothing inside
``src/`` changes; the wrappers live here and are installed only in the
traced replay process.

Several modules bind these functions with ``from ... import``, so each
wrapper replaces *every* module attribute that is the original object,
not just the defining module's.  Methods are replaced on their class.

Spans stay in memory (:class:`Recorder`) and are folded at the end of
the run into per-name self times: a span's duration minus the part of
its interval covered by its children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from dataclasses import dataclass

#: (span name, module, attribute path) of every wrapped entry point.
#: The span name is the layer plus the operation; it is what the
#: per-layer metrics aggregate over.
ENTRY_POINTS = (
    ("experiments.run", "repro.runner.executor", "run_one"),
    ("experiments.run_point", "repro.experiments.common", "run_point"),
    ("trace.build", "repro.trace.bert_trace", "build_iteration_trace"),
    ("trace.passes", "repro.trace.passes", "PassManager.run"),
    ("trace.list_view", "repro.trace.kernel_table", "KernelTable.to_kernels"),
    ("trace.list_view", "repro.profiler.profiler", "Profile.records"),
    ("hw.timing", "repro.hw.timing", "kernel_times"),
    ("profiler.profile", "repro.profiler.profiler", "profile_trace"),
    ("profiler.breakdown", "repro.profiler.breakdown", "summarize"),
    ("profiler.breakdown", "repro.profiler.breakdown",
     "component_breakdown"),
    ("profiler.breakdown", "repro.profiler.breakdown",
     "transformer_breakdown"),
    ("profiler.breakdown", "repro.profiler.breakdown", "region_breakdown"),
    ("grid.build", "repro.grid.engine", "build_grid_trace"),
    ("grid.profile", "repro.grid.engine", "profile_grid"),
    ("grid.summaries", "repro.grid.engine", "grid_summaries"),
    ("runner.cache.key", "repro.runner.cache", "ResultCache.key"),
    ("runner.cache.grid_key", "repro.runner.cache", "ResultCache.grid_key"),
    ("runner.cache.get", "repro.runner.cache", "ResultCache.get_payload"),
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put_payload"),
    ("serve.app.handle", "repro.serve.app", "App.handle"),
    ("serve.hot_cache.get", "repro.serve.hot_cache", "HotCache.get"),
    ("serve.hot_cache.put", "repro.serve.hot_cache", "HotCache.put"),
    ("serve.service.payload", "repro.serve.service",
     "ProfilingService.profile_payload"),
    ("serve.service.payload", "repro.serve.service",
     "ProfilingService.perfetto_payload"),
    ("serve.service.payload", "repro.serve.service",
     "ProfilingService.grid_payload"),
    ("serve.service.render", "repro.serve.service", "render_json"),
    ("data", "repro.data.packing", "SequencePacker.pack"),
    ("data", "repro.data.batching", "PreTrainingDataset.batch"),
    ("distributed", "repro.distributed.data_parallel",
     "data_parallel_timeline"),
    ("distributed", "repro.distributed.tensor_slicing",
     "tensor_slicing_timeline"),
    ("distributed", "repro.distributed.pipeline", "pipeline_timeline"),
    ("distributed", "repro.distributed.zero", "zero_dp_timeline"),
    ("distributed", "repro.distributed.hybrid", "hybrid_timeline"),
    ("distributed", "repro.distributed.simulator",
     "simulate_ring_allreduce"),
    ("distributed", "repro.distributed.simulator",
     "simulate_tree_allreduce"),
    ("distributed", "repro.distributed.simulator",
     "simulate_hierarchical_allreduce"),
)

#: Spans whose first argument names the request they serve (one
#: experiment of a batch).
REQUEST_SPANS = frozenset({"experiments.run"})

#: Modules imported before patching, so every ``from ... import``
#: binding of a wrapped function already exists and gets replaced.
PRELOAD = ("repro.cli", "repro.experiments.registry", "repro.serve",
           "repro.experiments.sweeps")

_current_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0)
_current_request: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_request", default="")


@dataclass
class SpanRecord:
    span_id: int
    name: str
    start: float
    end: float
    parent: int
    request: str
    tag: str = ""
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``list.append`` is atomic under the GIL, so
    worker threads of the server's pool record without a lock."""

    def __init__(self):
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)


def set_request(request_id: str) -> contextvars.Token:
    """Name the request (or experiment) the following spans belong to."""
    return _current_request.set(request_id)


def reset_request(token: contextvars.Token) -> None:
    """Undo the matching :func:`set_request`."""
    _current_request.reset(token)


def _tag_of(name: str, result) -> str:
    if name in ("runner.cache.get", "serve.hot_cache.get"):
        return "miss" if result is None else "hit"
    return ""


def _wrap(function, name: str, recorder: Recorder):
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            span_id = recorder.next_id()
            parent = _current_span.get()
            token = _current_span.set(span_id)
            start = time.perf_counter()
            try:
                result = await function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current_span.reset(token)
            recorder.spans.append(SpanRecord(
                span_id, name, start, end, parent, _current_request.get()))
            return result
        return async_wrapper

    names_request = name in REQUEST_SPANS

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_id = recorder.next_id()
        parent = _current_span.get()
        token = _current_span.set(span_id)
        request = _current_request.set(str(args[0])) if names_request \
            else None
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            request_id = _current_request.get()
            if request is not None:
                _current_request.reset(request)
            _current_span.reset(token)
        recorder.spans.append(SpanRecord(
            span_id, name, start, end, parent, request_id,
            _tag_of(name, result),
            len(result) if isinstance(result, bytes) else 0))
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every entry point, in every module that binds it."""
    for module in PRELOAD:
        importlib.import_module(module)
    for name, module_name, path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, property):
                wrapped = property(_wrap(original.fget, name, recorder),
                                   original.fset, original.fdel)
            else:
                wrapped = _wrap(original, name, recorder)
            setattr(owner, attribute, wrapped)
            continue
        original = getattr(module, path)
        wrapped = _wrap(original, name, recorder)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapped)


def _covered(intervals: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, cursor = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Span id -> self seconds (duration minus time covered by children)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.span_id: span.duration
            - _covered(children.get(span.span_id, []), span.start, span.end)
            for span in spans}


def aggregate(spans: list[SpanRecord]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, bytes returned
    and tag counts."""
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0,
            "tags": {}})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += selfs[span.span_id]
        entry["bytes"] += span.nbytes
        if span.tag:
            entry["tags"][span.tag] = entry["tags"].get(span.tag, 0) + 1
    return summary
