"""Chrome Trace Event / Perfetto export of simulated timelines.

The paper's raw artifacts are kernel tables and per-device timelines
(Sec. 3.1.4, Fig. 11); real profiling stacks inspect those interactively
in chrome://tracing or ui.perfetto.dev.  These exporters emit the standard
Trace Event JSON format (the ``{"traceEvents": [...]}`` object form) for
our simulated equivalents:

* :func:`render_profile_trace` — a :class:`~repro.profiler.profiler.
  Profile`'s kernel stream laid out on one virtual GPU track, one complete
  (``ph: "X"``) slice per kernel.  The trace is stream-serialized exactly
  as the timing model assumes, so slice ``ts``/``dur`` are the cumulative
  and per-kernel modeled times; summed slice durations equal
  ``Profile.total_time`` (in microseconds) to float precision.  Each slice
  carries phase / component / region / op-class / layer metadata in
  ``args`` plus an op-class color (``cname``), so Perfetto queries and the
  color legend reproduce the paper's hierarchical breakdowns.  It is
  written as ``indent=1`` JSON bytes straight from the table columns
  (:func:`profile_to_chrome_trace` parses them back into a dict).
* :func:`device_timelines_to_chrome_trace` — Fig. 11-style multi-device
  configurations, one process track per :class:`~repro.distributed.
  timeline.DeviceTimeline`, bucket slices in display order with the
  *exposed* communication slice explicit and flagged.
* :func:`collective_run_to_chrome_trace` — a simulated collective
  (:class:`~repro.distributed.simulator.CollectiveRun`): one thread track
  per sending rank, one slice per point-to-point transfer.
* :func:`spans_to_chrome_trace` — the tracer's own spans
  (:mod:`repro.obs.spans`), one thread track per Python thread.

The profile trace is written from columns, with ``json.dumps(indent=1)``
kept only as its test oracle; the other exporters return plain dicts,
which :func:`write_chrome_trace` serializes.
Timestamps are microseconds (the unit the format specifies).
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # imported lazily at run time to keep obs dependency-free
    from repro.distributed.simulator import CollectiveRun
    from repro.distributed.timeline import DeviceTimeline
    from repro.profiler.profiler import Profile
    from repro.obs.spans import Span

#: Trace-viewer reserved color names per op class (the ``cname`` field).
#: Compute-dense classes get greens, memory-bound classes blues/yellows,
#: communication red — matching the mental model of the paper's figures.
OP_CLASS_COLORS = {
    "gemm": "thread_state_running",
    "batched_gemm": "thread_state_runnable",
    "elementwise": "thread_state_iowait",
    "reduction": "thread_state_unknown",
    "gather_scatter": "generic_work",
    "normalization": "rail_response",
    "optimizer": "rail_animation",
    "communication": "terrible",
}

#: Bucket colors of the multi-device export.
_BUCKET_COLORS = {
    "transformer": "thread_state_running",
    "dr_rc_ln_replicated": "rail_response",
    "output": "thread_state_runnable",
    "embedding": "generic_work",
    "optimizer": "rail_animation",
    "communication": "terrible",
}


def _metadata(pid: int, name: str, *, tid: int | None = None,
              sort_index: int | None = None) -> list[dict]:
    """Process/thread naming metadata events."""
    events: list[dict] = []
    if tid is None:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        if sort_index is not None:
            events.append({"name": "process_sort_index", "ph": "M",
                           "pid": pid, "tid": 0,
                           "args": {"sort_index": sort_index}})
    else:
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": name}})
    return events


#: One kernel slice of :func:`render_profile_trace`, in the layout
#: ``json.dumps(indent=1)`` gives it inside ``traceEvents``.  The three
#: trailing slots hold the optional ``gemm_shape`` / ``fusion_group`` args
#: and ``cname`` field, each empty when the row has none.
_SLICE = ('  {\n   "name": %s,\n   "cat": %s,\n   "ph": "X",\n   "ts": %s,'
          '\n   "dur": %s,\n   "pid": %s,\n   "tid": 0,\n   "args": {'
          '\n    "index": %s,\n    "op_class": %s,\n    "phase": %s,'
          '\n    "component": %s,\n    "region": %s,\n    "layer": %s,'
          '\n    "dtype": %s,\n    "flops": %s,\n    "bytes": %s%s%s'
          '\n   }%s\n  }')

#: A process/thread naming metadata event in the same layout.
_NAME_EVENT = ('  {\n   "name": %s,\n   "ph": "M",\n   "pid": %s,'
               '\n   "tid": 0,\n   "args": {\n    "name": %s\n   }\n  }')

_TRAILER = ('\n ],\n "displayTimeUnit": "ms",\n "otherData": {'
            '\n  "exporter": "repro.obs.timeline_export",'
            '\n  "device": %s,\n  "kernels": %s,\n  "total_time_us": %s'
            '\n }\n}\n')

#: ``float.__repr__`` spellings ``json.dumps`` replaces.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values) -> list[str]:
    """The ``json.dumps`` text of each float of a NumPy array."""
    import numpy as np

    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _int_texts(values) -> list[str]:
    """The ``json.dumps`` text of each integer of a NumPy array."""
    return list(map(int.__repr__, values.tolist()))


def render_profile_trace(profile: "Profile", *,
                         label: str = "simulated kernel stream",
                         pid: int = 0) -> bytes:
    """One virtual GPU track: a complete slice per profiled kernel.

    Returns the document as the bytes ``json.dumps(document, indent=1)``
    plus a newline would give, written straight from the profile's table
    columns: each pooled label is JSON-encoded once per code, numbers are
    spelled as ``json.dumps`` spells them, and every row fills one fixed
    template.  No per-event object is built, and the pure-Python
    ``indent=1`` encoder never runs (CPython encodes in C only when
    ``indent is None``); ``tests/test_trace_writer.py`` holds
    ``json.dumps`` as the oracle.
    """
    import numpy as np

    table = profile.table
    encode = encode_basestring_ascii

    def labels(column: str, key: str = "") -> list[str]:
        # An absent (-1) pool code leaves its optional field out.
        return table.labels(column, [key + encode(text) for text
                                     in table.label_pool(column)], "")

    ops = labels("op_class")
    cnames = table.labels("op_class", [
        f',\n   "cname": {encode(color)}' if color else ""
        for color in map(OP_CLASS_COLORS.get,
                         table.label_pool("op_class"))])
    # Sequential row-order clock: accumulate is the running sum, so row i
    # starts at clock[i], where row i - 1 ends, and clock[-1] is the total.
    # Overflow and inf - inf give inf and NaN silently, as Python floats
    # do.
    with np.errstate(over="ignore", invalid="ignore"):
        durations = profile.times * 1e6
        clock = np.add.accumulate(np.concatenate(([0.0], durations)))
    clock_texts = _float_texts(clock)
    pid_text = int.__repr__(pid)
    rows = zip(labels("name_code"), ops, clock_texts[:-1],
               _float_texts(durations), itertools.repeat(pid_text),
               map(int.__repr__, range(len(table))), ops, labels("phase"),
               labels("component"), labels("region"),
               _int_texts(table.layer), labels("dtype"),
               _int_texts(table.flops), _int_texts(table.bytes_total),
               labels("gemm_code", ',\n    "gemm_shape": '),
               labels("fusion_code", ',\n    "fusion_group": '), cnames)
    device = profile.device.name
    events = [_NAME_EVENT % ('"process_name"', pid_text,
                             encode(f"{device} (simulated)")),
              _NAME_EVENT % ('"thread_name"', pid_text, encode(label))]
    events += [_SLICE % row for row in rows]
    return ("{\n \"traceEvents\": [\n" + ",\n".join(events)
            + _TRAILER % (encode(device), len(profile), clock_texts[-1])
            ).encode()


def profile_to_chrome_trace(profile: "Profile", *,
                            label: str = "simulated kernel stream",
                            pid: int = 0) -> dict:
    """The document of :func:`render_profile_trace`, parsed."""
    return json.loads(render_profile_trace(profile, label=label, pid=pid))


def device_timelines_to_chrome_trace(
        timelines: "Iterable[DeviceTimeline]") -> dict:
    """Fig. 11-style export: one process track per device configuration.

    Buckets are laid out sequentially in the display order of
    :data:`repro.distributed.timeline.BUCKET_ORDER`; the communication
    slice is *exposed* (un-overlapped) time and is flagged as such in its
    ``args`` so the paper's "communication cost is visible on the
    timeline" reading carries over.
    """
    from repro.distributed.timeline import BUCKET_ORDER

    events: list[dict] = []
    for pid, timeline in enumerate(timelines):
        events += _metadata(pid, timeline.label, sort_index=pid)
        events += _metadata(pid, "iteration", tid=0)
        clock_us = 0.0
        ordered = [b for b in BUCKET_ORDER if b in timeline.buckets]
        ordered += [b for b in timeline.buckets if b not in BUCKET_ORDER]
        for bucket in ordered:
            seconds = timeline.buckets[bucket]
            if seconds <= 0:
                continue
            duration_us = seconds * 1e6
            name = ("communication (exposed)" if bucket == "communication"
                    else bucket)
            event = {
                "name": name,
                "cat": "device-timeline",
                "ph": "X",
                "ts": clock_us,
                "dur": duration_us,
                "pid": pid,
                "tid": 0,
                "args": {
                    "bucket": bucket,
                    "devices": timeline.devices,
                    "per_device_batch": timeline.per_device_batch,
                    "fraction": timeline.fraction(bucket),
                    "exposed_communication": bucket == "communication",
                },
            }
            color = _BUCKET_COLORS.get(bucket)
            if color:
                event["cname"] = color
            events.append(event)
            clock_us += duration_us
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.obs.timeline_export",
                          "tracks": "one per device configuration"}}


def collective_run_to_chrome_trace(run: "CollectiveRun", *,
                                   pid: int = 0) -> dict:
    """A simulated collective: one thread track per sending rank."""
    events = _metadata(pid, f"{run.algorithm} ({run.devices} devices)")
    ranks = sorted({e.source for e in run.events})
    for rank in ranks:
        events += _metadata(pid, f"rank {rank} send", tid=rank)
    for transfer in run.events:
        events.append({
            "name": f"{transfer.source}->{transfer.destination}",
            "cat": "communication",
            "ph": "X",
            "ts": transfer.start_s * 1e6,
            "dur": (transfer.end_s - transfer.start_s) * 1e6,
            "pid": pid,
            "tid": transfer.source,
            "cname": "terrible",
            "args": {
                "step": transfer.step,
                "source": transfer.source,
                "destination": transfer.destination,
                "bytes": transfer.n_bytes,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.obs.timeline_export",
                          "algorithm": run.algorithm,
                          "completion_us": run.completion_s * 1e6}}


def spans_to_chrome_trace(spans: "Iterable[Span]", *,
                          pid: int = 0) -> dict:
    """The tracer's own spans: one thread track per Python thread."""
    # Spans finish innermost-first; emit in start order so each track's
    # complete events are ts-monotonic as the format expects.
    spans = sorted(spans, key=lambda s: s.start_s)
    events = _metadata(pid, "repro span tracer")
    origin = min((s.start_s for s in spans), default=0.0)
    thread_ids = {s.thread_id for s in spans}
    tids = {thread: index for index, thread
            in enumerate(sorted(thread_ids))}
    for thread, tid in tids.items():
        events += _metadata(pid, f"thread {thread}", tid=tid)
    for record in spans:
        events.append({
            "name": record.name,
            "cat": record.category,
            "ph": "X",
            "ts": (record.start_s - origin) * 1e6,
            "dur": record.duration_s * 1e6,
            "pid": pid,
            "tid": tids[record.thread_id],
            "args": {"depth": record.depth, **record.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.obs.timeline_export",
                          "spans": len(spans)}}


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema-check a trace payload; returns a list of problems.

    Covers the invariants the test suite (and the CI smoke step) relies
    on: the object form with a ``traceEvents`` list; every event carries
    ``name``/``ph``/``pid``/``tid``; complete events carry non-negative
    numeric ``ts``/``dur``; and per ``(pid, tid)`` track the complete
    events are monotonic in ``ts``.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"event {index} missing {field!r}")
        if event.get("ph") == "M":
            continue
        if event.get("ph") != "X":
            problems.append(f"event {index} has unexpected ph "
                            f"{event.get('ph')!r}")
            continue
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"event {index} {field!r} not a non-negative number")
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if ts < last_ts.get(track, 0.0):
                problems.append(
                    f"event {index} ts {ts} not monotonic on track {track}")
            else:
                last_ts[track] = ts
    return problems


def write_chrome_trace(payload: dict, path: str) -> None:
    """Serialize a trace payload to ``path`` (Perfetto-loadable JSON)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
