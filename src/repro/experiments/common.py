"""Shared plumbing for the per-figure experiment modules.

Every experiment runs against the same frozen MI100-like device model —
there is no per-figure tuning (DESIGN.md Sec. 5) — and against the same
object of it (:func:`~repro.hw.device.default_device`), so the GEMM-time
memo warmed by one experiment serves the next.  Several figures share
operating points; they share them through the one in-process memo of
iteration traces (:func:`~repro.trace.bert_trace.iteration_trace`), so a
point's trace is built once per process.  Pricing a trace is cheap and
is not cached; finished experiment outputs are, by the executor.
"""

from __future__ import annotations

from repro.config import BertConfig, TrainingConfig
from repro.hw.device import DeviceModel, default_device
from repro.profiler.profiler import Profile, profile_trace
from repro.runner.cache import POINT_KERNELS, POINT_RESOLUTIONS
from repro.trace.bert_trace import iteration_trace
from repro.trace.builder import Trace
from repro.trace.passes import PassManager


def run_point(model: BertConfig, training: TrainingConfig,
              device: DeviceModel | None = None, *,
              passes: "PassManager | None" = None) -> tuple[Trace, Profile]:
    """Trace + profile of one operating point.

    The trace is the shared :func:`~repro.trace.bert_trace.iteration_trace`
    of the point, rewritten by ``passes`` (a
    :class:`~repro.trace.passes.PassManager`) when given, then priced on
    ``device`` (the default device when ``None``).  Both are frozen views
    over an immutable ``KernelTable``, so sharing the trace with every
    other reader of the point is safe.  Each call counts one computed
    resolution (``result=miss``) in ``run_point.*``.
    """
    if device is None:
        device = default_device()
    trace = iteration_trace(model, training)
    if passes is not None and passes.passes:
        trace = passes.run(trace)
    profile = profile_trace(trace, device)
    POINT_RESOLUTIONS.inc(result="miss")
    POINT_KERNELS.inc(len(trace))
    return trace, profile
