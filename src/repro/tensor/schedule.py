"""Scheduler for the lazy tensor graph: linearize, validate, realize.

The scheduler turns a set of requested outputs into a deterministic list
of realize-items (the *schedule*), executes their NumPy kernels in order,
and recycles intermediate buffers whose every consumer has run.

Guarantees:

* **Deterministic order.**  Nodes are executed in ``nid`` order, which is
  construction order and therefore a valid topological order (sources are
  always constructed first).  Two identical programs build identical
  schedules.
* **No double realize.**  A node whose ``realized`` buffer is already set
  is never re-executed; :func:`execute` raises if forced.
* **Buffer reuse.**  After a node's last constructed consumer executes,
  its array is dropped unless a live :class:`~repro.tensor.tensor.Tensor`
  still fronts it (that tensor could mint new consumers later, or the
  caller may read ``.data``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tensor import recording
from repro.tensor.lazy import LazyOp


class ScheduleError(RuntimeError):
    """A structurally invalid schedule (cycle, missing source, replay)."""


@dataclass
class ScheduleReport:
    """What one :func:`realize` call did.

    Attributes:
        executed: op nodes executed, in order (the realized schedule).
        freed: intermediate arrays dropped by consumer refcounting.
        peak_live_bytes: high-water mark of realized intermediate bytes.
    """

    executed: list[LazyOp] = field(default_factory=list)
    freed: int = 0
    peak_live_bytes: int = 0


def linearize(roots) -> list[LazyOp]:
    """The deterministic schedule realizing every node in ``roots``.

    Collects the unrealized op nodes reachable from ``roots`` (realized
    nodes and buffers are data sources, not work) and orders them by
    ``nid`` — construction order, which is a topological order.
    """
    seen: set[int] = set()
    pending: list[LazyOp] = []
    stack = [r for r in roots if r is not None]
    while stack:
        node = stack.pop()
        if node.nid in seen:
            continue
        seen.add(node.nid)
        if node.realized is not None:
            continue
        if not node.is_buffer:
            pending.append(node)
        stack.extend(node.srcs)
    pending.sort(key=lambda n: n.nid)
    return pending


def validate_schedule(schedule: list[LazyOp]) -> None:
    """Raise :class:`ScheduleError` unless ``schedule`` is executable.

    Checks acyclicity / source-before-use (every source of an item is
    either realized, a buffer, or an earlier item), strictly increasing
    deterministic ``nid`` order (what :func:`linearize` produces), and
    that no item appears twice or is already realized (double-realize).
    """
    position: dict[int, int] = {}
    last_nid = -1
    for index, node in enumerate(schedule):
        if node.nid in position:
            raise ScheduleError(f"node {node.nid} scheduled twice")
        if node.nid <= last_nid:
            raise ScheduleError(
                f"schedule order is not deterministic: nid {node.nid} "
                f"after {last_nid}")
        last_nid = node.nid
        if node.realized is not None:
            raise ScheduleError(
                f"node {node.nid} ({node.kind}) is already realized")
        if node.is_buffer or node.compute is None:
            raise ScheduleError(
                f"node {node.nid} ({node.kind}) is not executable")
        for src in node.srcs:
            if src.realized is not None or src.is_buffer:
                continue
            if src.nid not in position:
                raise ScheduleError(
                    f"node {node.nid} ({node.kind}) uses source {src.nid} "
                    f"({src.kind}) that is neither realized nor scheduled "
                    f"earlier — cycle or missing root")
        position[node.nid] = index


def _src_array(src: LazyOp):
    if src.realized is None:
        raise ScheduleError(
            f"source {src.nid} ({src.kind}) executed out of order")
    return src.realized


def execute(node: LazyOp):
    """Run one schedule item; returns its output array.

    Recording happens here — at realize, not at graph build — so captures
    through the lazy path observe what actually executed.
    """
    if node.realized is not None:
        raise ScheduleError(
            f"double realize of node {node.nid} ({node.kind})")
    args = [_src_array(src) for src in node.srcs]
    out = node.compute(*args)
    node.realized = out
    owner = node.owner() if node.owner is not None else None
    if owner is not None:
        owner._set_realized(out)
    shapes = node.record_shapes
    if shapes is None:
        shapes = tuple(src.shape for src in node.srcs)
    recording.record(node.kind, *shapes,
                     dtype=getattr(out, "dtype", None),
                     out_shape=getattr(out, "shape", None))
    return out


def realize(roots, *, report: bool = False):
    """Execute every unrealized node reachable from ``roots``.

    Args:
        roots: iterable of :class:`LazyOp` nodes (or ``None`` entries).
        report: also return a :class:`ScheduleReport` with the executed
            schedule and buffer-reuse statistics.
    """
    schedule = linearize(roots)
    stats = ScheduleReport()
    live_bytes = 0
    for node in schedule:
        out = execute(node)
        stats.executed.append(node)
        nbytes = getattr(out, "nbytes", 0)
        live_bytes += nbytes
        stats.peak_live_bytes = max(stats.peak_live_bytes, live_bytes)
        for src in node.srcs:
            src._pending -= 1
            if (src._pending <= 0 and src.realized is not None
                    and not src.owner_alive() and not src.is_buffer):
                live_bytes -= getattr(src.realized, "nbytes", 0)
                src.realized = None
                stats.freed += 1
    if report:
        return stats
    return None


def realize_tensors(*tensors) -> None:
    """Realize the graphs behind ``tensors`` (used by ``Tensor.data``)."""
    roots = [t._lazy for t in tensors if t._lazy is not None]
    if roots:
        realize(roots)
