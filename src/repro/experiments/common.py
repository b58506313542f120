"""Shared plumbing for the per-figure experiment modules.

Every experiment runs against the same frozen MI100-like device model —
there is no per-figure tuning (DESIGN.md Sec. 5).  Traces and profiles are
memoized because several figures share operating points; the memo is the
content-addressed disk cache of :mod:`repro.runner.cache` (keyed on model,
training, device fingerprint and code version), fronted by a small
in-process table so repeated points within one invocation do not touch
disk.

Every caller of a point receives the same memoized ``(Trace, Profile)``
pair.  Sharing is safe because both are frozen views over an immutable
``KernelTable`` and times array: a fusion or checkpointing transform
returns a new view and cannot touch the cached one.
"""

from __future__ import annotations

from repro.config import BertConfig, TrainingConfig
from repro.hw.device import DeviceModel, mi100
from repro.profiler.profiler import Profile, profile_trace
from repro.runner.cache import POINT_KERNELS, POINT_RESOLUTIONS, get_cache
from repro.trace.bert_trace import clear_iteration_traces, iteration_trace
from repro.trace.builder import Trace
from repro.trace.passes import PassManager


def default_device() -> DeviceModel:
    """The frozen device every experiment is evaluated on."""
    return mi100()


# In-process front of the disk cache: key -> (Trace, Profile).
_memo: dict[str, tuple[Trace, Profile]] = {}


def clear_memo() -> None:
    """Drop the in-process memos of points and of their iteration traces
    (tests, cold benchmarks; the disk cache is unaffected)."""
    _memo.clear()
    clear_iteration_traces()


def run_point(model: BertConfig, training: TrainingConfig,
              device: DeviceModel | None = None, *,
              passes: "PassManager | None" = None) -> tuple[Trace, Profile]:
    """Trace + profile of one operating point.

    Results are cached on disk, content-addressed by ``(model, training,
    device fingerprint, code version, pass-pipeline signature)``, and
    survive across invocations.  ``passes`` — a
    :class:`~repro.trace.passes.PassManager` — is applied to the generated
    trace before profiling; its :attr:`~repro.trace.passes.PassManager.
    signature` joins the cache key, so transformed variants of the same
    point never collide with the raw one.  The returned pair is shared
    with every other caller of the point and is immutable.
    """
    if device is None:
        device = default_device()
    cache = get_cache()
    pipeline = passes.signature if passes is not None else ""
    key = cache.key(model, training, device, pipeline=pipeline)

    entry = _memo.get(key)
    hit = entry is not None
    if entry is None:
        entry = cache.get(key)
        hit = entry is not None
        if entry is None:
            trace = iteration_trace(model, training)
            if passes is not None and passes.passes:
                trace = passes.run(trace)
            entry = (trace, profile_trace(trace, device))
            cache.put(key, *entry)
        _memo[key] = entry

    POINT_RESOLUTIONS.inc(result="hit" if hit else "miss")
    POINT_KERNELS.inc(len(entry[0]))
    return entry
