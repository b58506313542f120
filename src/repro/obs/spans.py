"""Span tracer: nested timing instrumentation of the simulator itself.

The paper's methodology is observability of *training*; this module is
observability of *the reproduction* — where does a ``repro run`` spend its
own wall-clock?  Hot paths (trace build, vectorized timing, breakdown
aggregation, cache traffic, experiment lifecycle) open a :func:`span`
around their work; when tracing is enabled, every span records its wall
time, nesting (parent/depth), a ``trace_id`` connecting it to the request
or experiment that caused it, and a few key=value attributes.

Design constraints, in priority order:

* **Near-zero cost when disabled.**  Spans wrap the hot paths of every
  experiment, so the disabled path is a single attribute check returning a
  shared no-op context manager — the acceptance gate is <= 5% overhead on
  ``benchmarks/bench_profile_engine.py``.
* **Context propagation.**  The active-span stack lives in a
  ``contextvars.ContextVar``: spans opened on different threads or asyncio
  tasks nest independently (each thread/task has its own context), and —
  unlike the original ``threading.local`` stack — the context can be
  *carried* across execution boundaries.  ``contextvars.copy_context()``
  hands a worker thread the caller's open stack (the serve executor does
  exactly this), and :meth:`SpanTracer.current_context` /
  :meth:`SpanTracer.attach` snapshot/replay a :class:`TraceContext` into
  places a context object cannot reach (worker *processes*).
* **Nestable and scoped.**  :meth:`SpanTracer.capture` bounds a recording
  scope (the executor opens one per experiment) and returns the spans
  finished inside it, so parallel workers each dump their own spans into
  their :class:`~repro.runner.executor.ExperimentResult`.

Spans are plain data afterwards: :func:`aggregate_spans` folds them into
the per-name summary stored in run manifests,
:func:`repro.obs.timeline_export.spans_to_chrome_trace` lays the raw spans
out on a Perfetto-loadable timeline, and the serve flight recorder
(:mod:`repro.obs.flight`) groups them per ``trace_id`` into one request
tree.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
import time
import uuid
from dataclasses import dataclass, field


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (one per root span / request)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or still open) span.

    Attributes:
        name: dotted span name, e.g. ``"timing.kernel_times"``.
        category: coarse grouping used as the Chrome-trace ``cat`` field.
        start_s: start timestamp (``time.perf_counter`` domain).
        end_s: end timestamp; equals ``start_s`` until the span closes.
        thread_id: ``threading.get_ident()`` of the opening thread.
        span_id: id unique within one tracer.
        parent_id: enclosing span's ``span_id``, or ``-1`` at the root.
        depth: nesting depth (root spans are 0).
        trace_id: id shared by every span of one request/experiment tree;
            generated at the root, inherited by children (including
            across thread, task and process boundaries via
            :class:`TraceContext`).
        attrs: small JSON-able key=value payload.
    """

    name: str
    category: str = "repro"
    start_s: float = 0.0
    end_s: float = 0.0
    thread_id: int = 0
    span_id: int = 0
    parent_id: int = -1
    depth: int = 0
    trace_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread_id": self.thread_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class TraceContext:
    """A serializable snapshot of the active trace position.

    Small enough to pickle into a worker process (``repro run all
    --jobs N``) or stash in a manifest: spans opened under
    :meth:`SpanTracer.attach` of this context join trace ``trace_id``
    as children of ``span_id``.  ``span_id == -1`` parents new spans at
    the root of the trace (used when only the id itself is being
    propagated, e.g. one pre-assigned trace id per experiment).
    """

    trace_id: str
    span_id: int = -1
    depth: int = -1

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "depth": self.depth}

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(trace_id=str(payload["trace_id"]),
                   span_id=int(payload.get("span_id", -1)),
                   depth=int(payload.get("depth", -1)))


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager that closes one span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self.span)


class SpanTracer:
    """A collector of nested spans.

    Disabled by default; :meth:`capture` (or :meth:`enable`) turns it on.
    All mutating operations are thread-safe.  The active-span stack is an
    immutable tuple held in a ``ContextVar``, so concurrent asyncio tasks
    (which copy their parent's context) never mutate each other's stack.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stack_var: contextvars.ContextVar[tuple[Span, ...]] = \
            contextvars.ContextVar("repro_span_stack", default=())
        self._ambient_var: contextvars.ContextVar[TraceContext | None] = \
            contextvars.ContextVar("repro_trace_context", default=None)
        self._finished: list[Span] = []
        self._sinks: list = []
        self._enabled = False
        self._retain = True
        self._captures = 0
        self._next_id = 0

    # ------------------------------------------------------------- lifecycle
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, *, retain: bool = True) -> None:
        """Turn tracing on.

        ``retain=False`` keeps the tracer from accumulating finished
        spans in its internal list — spans are delivered to sinks only.
        A long-running server enables with ``retain=False`` so memory
        stays bounded; :meth:`capture` scopes still collect (the scope
        itself forces retention while open).
        """
        self._enabled = True
        self._retain = retain

    def disable(self) -> None:
        self._enabled = False
        self._retain = True

    def reset(self) -> list[Span]:
        """Drain and return every finished span."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    # ---------------------------------------------------------------- sinks
    def add_sink(self, sink) -> None:
        """Register ``sink(span)`` to be called as each span finishes.

        Sinks see every finished span regardless of retention or capture
        scopes (the flight recorder groups them per ``trace_id``).  A
        raising sink is dropped from the delivery, never the caller.
        """
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    # ---------------------------------------------------------------- spans
    def span(self, name: str, category: str = "repro", **attrs):
        """Open a span; use as ``with tracer.span("trace.build"): ...``.

        When tracing is disabled this returns a shared no-op context
        manager without allocating anything.
        """
        if not self._enabled:
            return _NOOP
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            depth = parent.depth + 1
        else:
            ambient = self._ambient_var.get()
            if ambient is not None:
                trace_id = ambient.trace_id
                parent_id = ambient.span_id
                depth = ambient.depth + 1
            else:
                trace_id = new_trace_id()
                parent_id = -1
                depth = 0
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(
            name=name, category=category,
            start_s=time.perf_counter(), end_s=0.0,
            thread_id=threading.get_ident(), span_id=span_id,
            parent_id=parent_id, depth=depth, trace_id=trace_id,
            attrs=attrs)
        self._stack_var.set(stack + (record,))
        return _ActiveSpan(self, record)

    def _finish(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        stack = self._stack_var.get()
        if stack and stack[-1] is span:
            self._stack_var.set(stack[:-1])
        elif any(open_span is span for open_span in stack):
            # Mis-nested exit (generator abandoned mid-span): drop it.
            self._stack_var.set(
                tuple(s for s in stack if s is not span))
        with self._lock:
            if self._retain or self._captures:
                self._finished.append(span)
            sinks = tuple(self._sinks)
        for sink in sinks:
            try:
                sink(span)
            except Exception:
                pass

    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        span = self.current()
        if span is not None:
            span.attrs.update(attrs)

    # ------------------------------------------------------ trace contexts
    def current_context(self) -> TraceContext | None:
        """Snapshot of the active trace position, or ``None`` outside one.

        The snapshot is plain data — pickle it into a worker process and
        :meth:`attach` it there so the worker's spans join this trace.
        """
        stack = self._stack_var.get()
        if stack:
            innermost = stack[-1]
            return TraceContext(trace_id=innermost.trace_id,
                                span_id=innermost.span_id,
                                depth=innermost.depth)
        return self._ambient_var.get()

    @contextlib.contextmanager
    def attach(self, context: TraceContext):
        """Replay a :class:`TraceContext`: root spans opened inside the
        ``with`` block parent to it instead of starting a new trace.

        Open spans already on the stack win over the attached context
        (attachment only matters where the stack is empty — a fresh
        thread, task or process).
        """
        token = self._ambient_var.set(context)
        try:
            yield context
        finally:
            self._ambient_var.reset(token)

    # -------------------------------------------------------------- scoping
    def capture(self) -> "_CaptureScope":
        """Enable tracing for a scope and collect the spans it finishes.

        Scopes may nest: inner scopes hand their spans to the outer scope
        as well, and tracing stays enabled until the outermost scope
        closes (if it was disabled before).
        """
        return _CaptureScope(self)


class _CaptureScope:
    """Context manager bounding one recording scope."""

    def __init__(self, tracer: SpanTracer):
        self._tracer = tracer
        self._was_enabled = False
        self._start_index = 0
        self.spans: list[Span] = []

    def __enter__(self) -> "_CaptureScope":
        self._was_enabled = self._tracer.enabled
        with self._tracer._lock:
            self._start_index = len(self._tracer._finished)
            self._tracer._captures += 1
        if not self._was_enabled:
            self._tracer._enabled = True
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._was_enabled:
            self._tracer._enabled = False
        with self._tracer._lock:
            self._tracer._captures -= 1
            self.spans = self._tracer._finished[self._start_index:]
            if self._tracer._captures == 0 and not (
                    self._was_enabled and self._tracer._retain):
                # Outermost scope over a tracer that would not itself
                # have retained these spans (disabled, or enabled in
                # retain=False server mode): drain so the next capture
                # starts clean and server memory stays bounded.
                del self._tracer._finished[self._start_index:]


# The process-wide tracer every instrumented module reports into.
_tracer = SpanTracer()


def get_tracer() -> SpanTracer:
    """The process-wide tracer instance."""
    return _tracer


def span(name: str, category: str = "repro", **attrs):
    """Open a span on the process-wide tracer (module-level convenience)."""
    if not _tracer._enabled:  # inlined fast path for the hot call sites
        return _NOOP
    return _tracer.span(name, category, **attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span, if tracing is on."""
    if _tracer._enabled:
        _tracer.annotate(**attrs)


def current_context() -> TraceContext | None:
    """Snapshot the process-wide tracer's active trace position."""
    return _tracer.current_context()


def attach(context: TraceContext):
    """Replay a trace context on the process-wide tracer."""
    return _tracer.attach(context)


def traced(name: str | None = None, category: str = "repro"):
    """Decorator tracing every call of a function as one span."""
    def decorate(function):
        span_name = name or f"{function.__module__}.{function.__qualname__}"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not _tracer._enabled:
                return function(*args, **kwargs)
            with _tracer.span(span_name, category):
                return function(*args, **kwargs)
        return wrapper
    return decorate


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are found by ``parent_id`` and clipped to the parent's
    interval; overlapping children (worker threads) count once.
    """
    children: dict[int, list[Span]] = {}
    for record in spans:
        children.setdefault(record.parent_id, []).append(record)
    self_times = []
    for record in spans:
        covered, reach = 0.0, record.start_s
        for child in sorted(children.get(record.span_id, ()),
                            key=lambda child: child.start_s):
            start = max(child.start_s, reach)
            end = min(child.end_s, record.end_s)
            if end > start:
                covered += end - start
                reach = end
        self_times.append(record.duration_s - covered)
    return self_times


def aggregate_spans(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Fold raw spans into the per-name summary stored in run manifests.

    Returns ``{name: {count, total_s, self_s, max_s}}``: ``total_s`` is
    inclusive, ``self_s`` excludes the time child spans cover, so where
    children do not overlap the ``self_s`` of every name sums to the wall
    time of the root spans.  Iteration order follows first appearance,
    which is launch order for single-threaded runs.
    """
    summary: dict[str, dict[str, float]] = {}
    for record, self_s in zip(spans, _self_times(spans)):
        entry = summary.setdefault(
            record.name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += record.duration_s
        entry["self_s"] += self_s
        entry["max_s"] = max(entry["max_s"], record.duration_s)
    for entry in summary.values():
        for stat in ("total_s", "self_s", "max_s"):
            entry[stat] = round(entry[stat], 9)
    return summary


def merge_span_summaries(summaries: "list[dict[str, dict[str, float]]]"
                         ) -> dict[str, dict[str, float]]:
    """Merge per-experiment span summaries into one run-level summary."""
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = merged.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            into["count"] += entry.get("count", 0)
            into["total_s"] = round(into["total_s"]
                                    + entry.get("total_s", 0.0), 9)
            if "self_s" in entry:
                into["self_s"] = round(into.get("self_s", 0.0)
                                       + entry["self_s"], 9)
            into["max_s"] = max(into["max_s"], entry.get("max_s", 0.0))
    return merged
