"""Batch experiment executor: isolation, parallelism, determinism.

``repro run all`` used to replay the registry serially and abort on the
first raising experiment.  This executor runs every requested experiment
to completion regardless of individual failures, optionally fans the
batch out over worker processes (``--jobs N``), and always returns
results in the requested order so output is deterministic whatever the
completion order was.

Each experiment is wrapped in an observability scope — a
:meth:`~repro.obs.spans.SpanTracer.capture` recording the spans the
instrumented subsystems open, plus a metrics-registry snapshot diff — so
its result carries wall-clock time, a span summary, per-experiment metric
deltas, the operating-point counters read from those deltas (cache
hits/misses, kernels, points), and — where the experiment's rows
self-report a pass/fail verdict (Table 1's takeaway checks) — a
paper-band summary.  An experiment runs alone in its process while the
delta is taken (serially, or one at a time per ``--jobs N`` worker), so
the delta is its own.  Each worker's registry starts empty and the deltas
ride home in the pickled result.

Every experiment in a batch is additionally assigned a ``trace_id`` *by
the parent* before dispatch: the id rides into the worker process as a
pickled :class:`~repro.obs.spans.TraceContext` and is replayed there via
:meth:`~repro.obs.spans.SpanTracer.attach`, so the worker's root span
(``experiment.<id>``) — and every engine span under it — joins the trace
the parent named.  The id is stamped on the :class:`ExperimentResult`
and therefore into the run manifest, giving ``repro run all --jobs N``
per-experiment trace ids that correlate manifests with span dumps.

Transient failures — injected faults from an active
:class:`~repro.faults.plan.FaultPlan` (the ``worker.kill`` site models a
worker dying mid-experiment) and anything raising
:class:`~repro.resilience.retry.TransientError` — are retried in place
under a deterministic :class:`~repro.resilience.retry.Retry` policy
before the experiment is recorded as failed; the retry count rides home
in the result counters and the manifest.  Because every experiment is a
pure function of the source tree, a retried attempt produces the *same*
bytes a fault-free run would — the chaos-determinism tests pin this.
"""

from __future__ import annotations

import concurrent.futures
import time
import traceback
from dataclasses import dataclass, field

from repro.faults import sites as fault_sites
from repro.obs import metrics, spans
from repro.resilience.retry import Retry

#: Default transient-failure policy for one experiment: a handful of
#: quick attempts (experiments are seconds, backoff need not be polite)
#: bounded so a permanently failing experiment cannot stall the batch.
DEFAULT_RETRY = Retry(max_attempts=6, base_delay_s=0.01,
                      max_delay_s=0.25, deadline_s=120.0)


@dataclass
class ExperimentResult:
    """Outcome of one experiment in a batch.

    Attributes:
        experiment_id: registry id (``"fig3"``, ...).
        ok: whether ``run``/``render`` completed without raising.
        output: the rendered report (empty on failure).
        error: formatted traceback (empty on success).
        duration_s: wall-clock seconds spent in ``run`` + ``render``.
        counters: operating-point counters (cache hits/misses, kernels,
            points) and transient-failure retries.
        bands: ``{"passed": n, "failed": m}`` when the experiment's rows
            carry a boolean ``holds`` verdict, else ``None``.
        spans: per-span-name ``{count, total_s, max_s}`` summary of the
            spans recorded while the experiment ran.
        metrics: metrics-registry delta (what this experiment changed).
        trace_id: trace id every span of this experiment carries
            (pre-assigned by the batch parent, or generated locally).
    """

    experiment_id: str
    ok: bool
    output: str = ""
    error: str = ""
    duration_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    bands: dict[str, int] | None = None
    spans: dict[str, dict] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)
    trace_id: str = ""

    def as_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "ok": self.ok,
            "error": self.error,
            "duration_s": round(self.duration_s, 6),
            "bands": self.bands,
            "spans": self.spans,
            "metrics": self.metrics,
            "trace_id": self.trace_id,
            **self.counters,
        }


def _band_summary(result: object) -> dict[str, int] | None:
    """Pass/fail counts for experiments whose rows self-report a verdict."""
    if not isinstance(result, list) or not result:
        return None
    verdicts = [getattr(row, "holds") for row in result
                if isinstance(getattr(row, "holds", None), bool)]
    if len(verdicts) != len(result):
        return None
    return {"passed": sum(verdicts),
            "failed": len(verdicts) - sum(verdicts)}


def _point_counters(delta: dict[str, dict]) -> dict[str, int]:
    """Operating-point counters of one experiment, from its metrics delta."""
    resolutions = delta.get("run_point.resolutions", {}).get("series", {})
    hits = resolutions.get("result=hit", 0)
    misses = resolutions.get("result=miss", 0)
    kernels = delta.get("run_point.kernels", {}).get("series", {})
    return {"cache_hits": hits, "cache_misses": misses,
            "kernels": kernels.get("", 0), "points": hits + misses}


def run_one(experiment_id: str, use_result_cache: bool = True,
            trace_context: dict | None = None,
            retry: Retry | None = None) -> ExperimentResult:
    """Run a single registered experiment, never raising.

    Successful results (rendered output + band verdicts) are stored in
    the content-addressed cache keyed on the experiment id and the digest
    of the *entire* package source, so an unchanged tree replays ``run
    all`` from disk while any source edit recomputes everything.
    Failures are never cached.

    ``trace_context`` is a pickled :class:`~repro.obs.spans.TraceContext`
    (its ``as_dict`` form — dicts cross the process boundary without the
    receiving side importing anything first).  When given, it is replayed
    with :meth:`~repro.obs.spans.SpanTracer.attach` so every span this
    experiment opens joins the caller's trace; when absent a fresh trace
    id is generated locally.

    ``retry`` is the transient-failure policy (:data:`DEFAULT_RETRY`
    when ``None``); each attempt passes the ``worker.kill`` and
    ``compute.slow`` fault sites, so a seeded chaos plan exercises the
    retry path deterministically.
    """
    from repro.experiments.registry import REGISTRY
    from repro.runner.cache import get_cache

    if isinstance(trace_context, dict):
        context = spans.TraceContext.from_dict(trace_context)
    elif isinstance(trace_context, spans.TraceContext):
        context = trace_context
    else:
        context = spans.TraceContext(trace_id=spans.new_trace_id())

    started = time.perf_counter()
    registry = metrics.get_registry()
    before = registry.snapshot()
    cache = get_cache()
    cache_key = None
    if experiment_id in REGISTRY:
        cache_key = cache.experiment_key(
            experiment_id, REGISTRY[experiment_id].description)
        if use_result_cache:
            payload = cache.get_payload(cache_key)
            if (isinstance(payload, dict)
                    and isinstance(payload.get("output"), str)):
                return ExperimentResult(
                    experiment_id=experiment_id, ok=True,
                    output=payload["output"],
                    duration_s=time.perf_counter() - started,
                    counters={"experiment_cached": 1},
                    bands=payload.get("bands"),
                    metrics=metrics.diff_snapshots(before,
                                                   registry.snapshot()),
                    trace_id=context.trace_id)

    policy = retry if retry is not None else DEFAULT_RETRY
    retries = 0

    def _count_retry(_attempt: int, _error: BaseException) -> None:
        nonlocal retries
        retries += 1

    def _attempt() -> tuple[object, str]:
        # The fault sites fire inside the retried scope: a scheduled
        # worker kill or slow compute is absorbed here, not surfaced.
        fault_sites.inject_failure("worker.kill",
                                   fault_sites.InjectedWorkerKill)
        fault_sites.inject_delay("compute.slow")
        result = experiment.run()
        return result, experiment.render(result)

    with spans.get_tracer().capture() as scope:
        with spans.attach(context), \
                spans.span(f"experiment.{experiment_id}",
                           category="experiment"):
            try:
                experiment = REGISTRY[experiment_id]
                result, output = policy.call(
                    _attempt, token=experiment_id, on_retry=_count_retry)
            except Exception:  # incl. RetryBudgetExceeded after giveup
                delta = metrics.diff_snapshots(before, registry.snapshot())
                return ExperimentResult(
                    experiment_id=experiment_id, ok=False,
                    error=traceback.format_exc(),
                    duration_s=time.perf_counter() - started,
                    counters={**_point_counters(delta), "retries": retries},
                    trace_id=context.trace_id)
    bands = _band_summary(result)
    if cache_key is not None:
        cache.put_payload(cache_key, {"output": output, "bands": bands})
    duration_s = time.perf_counter() - started
    metrics.histogram(
        "experiment.duration_s",
        "per-experiment wall-clock").observe(duration_s,
                                             experiment=experiment_id)
    delta = metrics.diff_snapshots(before, registry.snapshot())
    return ExperimentResult(
        experiment_id=experiment_id, ok=True, output=output,
        duration_s=duration_s,
        counters={**_point_counters(delta), "experiment_cached": 0,
                  "retries": retries},
        bands=bands,
        spans=spans.aggregate_spans(scope.spans),
        metrics=delta,
        trace_id=context.trace_id)


def run_experiments(experiment_ids: list[str], jobs: int = 1,
                    use_result_cache: bool = True,
                    retry: Retry | None = None
                    ) -> list[ExperimentResult]:
    """Run a batch of experiments; results in ``experiment_ids`` order.

    Args:
        experiment_ids: registry ids to run (must all be registered).
        jobs: worker processes; 1 runs in-process.  Workers share the
            disk cache (atomic writes), so an experiment or grid computed
            by one worker is a hit for every process on the next run;
            each worker builds the operating points it prices itself.
        use_result_cache: serve unchanged experiments from the result
            cache; pass ``False`` (CLI ``--fresh``) to force recompute.
        retry: transient-failure policy applied inside each experiment
            (:data:`DEFAULT_RETRY` when ``None``; frozen, so it pickles
            into worker processes unchanged).

    One experiment failing — even a worker process dying — never aborts
    the rest of the batch.  Trace ids are assigned here, in the parent,
    one per experiment: the cached-result short circuit, a worker death
    and a completed run all report the same pre-assigned id, so the
    manifest always correlates.
    """
    contexts = {eid: spans.TraceContext(trace_id=spans.new_trace_id())
                for eid in experiment_ids}
    if jobs <= 1 or len(experiment_ids) <= 1:
        return [run_one(eid, use_result_cache, contexts[eid].as_dict(),
                        retry)
                for eid in experiment_ids]

    from repro.experiments.registry import preload

    preload(experiment_ids)  # forked workers inherit the engine
    results: dict[str, ExperimentResult] = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(run_one, eid, use_result_cache,
                               contexts[eid].as_dict(), retry): eid
                   for eid in experiment_ids}
        for future in concurrent.futures.as_completed(futures):
            eid = futures[future]
            try:
                results[eid] = future.result()
            except Exception:
                # The worker process itself died (OOM, segfault, pickle
                # failure): record it like any other experiment failure.
                results[eid] = ExperimentResult(
                    experiment_id=eid, ok=False,
                    error=traceback.format_exc(),
                    trace_id=contexts[eid].trace_id)
    return [results[eid] for eid in experiment_ids]
