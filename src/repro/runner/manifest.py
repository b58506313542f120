"""JSON run manifests and the ``repro report`` summary.

Every ``repro run`` invocation records what happened — per-experiment
wall-clock, cache hit/miss counts, kernel counts, paper-band verdicts and
failures — into ``runs/<timestamp>.json``.  The manifest is the durable
baseline future performance PRs are measured against: diff two manifests
and you know exactly which figures got faster and whether the cache did
the work.

The directory defaults to ``./runs`` and can be moved with the
``REPRO_RUNS_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs import metrics as metrics_module
from repro.obs import spans as spans_module
from repro.runner.cache import CacheStats
from repro.runner.executor import ExperimentResult

#: Environment variable overriding the manifest directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Bumped when the manifest layout changes incompatibly.  Version 2 added
#: the additive ``observability`` section (merged span summary, metrics
#: snapshot, derived hit rates) and per-experiment ``spans``/``metrics``;
#: version-1 readers that ignore unknown keys still parse it.
SCHEMA_VERSION = 2


def runs_dir() -> Path:
    """The active manifest directory (``REPRO_RUNS_DIR`` or ``./runs``)."""
    return Path(os.environ.get(RUNS_DIR_ENV, "runs"))


def build_observability(results: list[ExperimentResult]) -> dict:
    """Run-level observability section: spans, metrics, derived rates.

    Per-experiment span summaries and metric deltas (recorded by
    :func:`repro.runner.executor.run_one`, including inside worker
    processes) merge into one run-wide view, with ``<metric>.hit_rate``
    derived for every ``result=hit|miss``-labeled counter — the result
    cache, the ``run_point`` resolutions and the GEMM-time memo.
    """
    merged_metrics = metrics_module.merge_snapshots(
        [r.metrics for r in results if r.metrics])
    return {
        "spans": spans_module.merge_span_summaries(
            [r.spans for r in results if r.spans]),
        "metrics": merged_metrics,
        "hit_rates": metrics_module.hit_rates(merged_metrics),
    }


def build_manifest(results: list[ExperimentResult], *, jobs: int,
                   command: str, cache_stats: CacheStats | None = None,
                   cache_dir: str = "") -> dict:
    """Assemble the manifest payload for one batch of results."""
    totals = {
        "experiments": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "duration_s": round(sum(r.duration_s for r in results), 6),
        "cache_hits": sum(r.counters.get("cache_hits", 0)
                          for r in results),
        "cache_misses": sum(r.counters.get("cache_misses", 0)
                            for r in results),
        "kernels": sum(r.counters.get("kernels", 0) for r in results),
    }
    return {
        "schema": SCHEMA_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "jobs": jobs,
        "cache_dir": cache_dir,
        "cache_stats": cache_stats.as_dict() if cache_stats else None,
        "totals": totals,
        "observability": build_observability(results),
        "experiments": [r.as_dict() for r in results],
    }


def write_manifest(manifest: dict, directory: Path | None = None) -> Path:
    """Write ``manifest`` to ``<runs>/<timestamp>.json``; returns the path.

    Timestamps collide when invocations land within the same second, so
    names carry a zero-padded sequence suffix — lexicographic order is
    chronological order, which :func:`latest_manifest_path` relies on.
    """
    directory = directory if directory is not None else runs_dir()
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for sequence in range(1000):
        path = directory / f"{stamp}-{sequence:03d}.json"
        if not path.exists():
            break
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def latest_manifest_path(directory: Path | None = None) -> Path | None:
    """The most recent manifest in ``directory``, or ``None``."""
    directory = directory if directory is not None else runs_dir()
    if not directory.is_dir():
        return None
    manifests = sorted(directory.glob("*.json"))
    return manifests[-1] if manifests else None


def load_manifest(path: Path) -> dict:
    """Parse one manifest file; ``ValueError`` unless it is a JSON object."""
    try:
        manifest = json.loads(Path(path).read_text())
    except ValueError as error:  # JSON and UTF-8 decode errors alike
        raise ValueError(f"unreadable run manifest {path}: {error}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"run manifest {path} is not a JSON object")
    return manifest


def resume_ids(manifest: dict, requested: list[str]) -> list[str]:
    """The subset of ``requested`` a resumed run still has to execute.

    An experiment is *done* when the manifest records it with ``ok``;
    failed and missing experiments are returned, in request order — the
    contract behind ``repro run all --resume``: re-execute only what the
    previous run did not complete.
    """
    completed = {entry.get("experiment_id")
                 for entry in manifest.get("experiments", [])
                 if entry.get("ok")}
    return [eid for eid in requested if eid not in completed]


def render_spans(manifest: dict) -> str:
    """Span summary of one manifest (the body of ``repro spans``)."""
    from repro.report.tables import format_table

    observability = manifest.get("observability") or {}
    span_summary = observability.get("spans") or {}
    if not span_summary:
        return ("no spans recorded in this manifest "
                "(run `repro run <experiment>` first)")
    ordered = sorted(span_summary.items(),
                     key=lambda item: item[1].get("self_s", 0.0),
                     reverse=True)
    rows = [(name, entry.get("count", 0),
             f"{entry.get('self_s', 0.0) * 1e3:.2f} ms",
             f"{entry.get('total_s', 0.0) * 1e3:.2f} ms",
             f"{entry.get('max_s', 0.0) * 1e3:.2f} ms")
            for name, entry in ordered]
    table = format_table(("span", "count", "self", "total", "max"), rows)
    self_s = sum(e.get("self_s", 0.0) for e in span_summary.values())
    return (f"spans of run {manifest.get('created_utc', '?')}  "
            f"command={manifest.get('command', '?')!r}\n\n{table}\n\n"
            f"{len(span_summary)} span names, "
            f"{sum(e.get('count', 0) for e in span_summary.values())} spans, "
            f"{self_s * 1e3:.2f} ms total traced time (sum of self time)")


def render_stats(manifest: dict) -> str:
    """Metrics summary of one manifest (the body of ``repro stats``)."""
    from repro.report.tables import format_table

    observability = manifest.get("observability") or {}
    snapshot = observability.get("metrics") or {}
    if not snapshot:
        return ("no metrics recorded in this manifest "
                "(run `repro run <experiment>` first)")
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        for label_key in sorted(entry.get("series", {})):
            value = entry["series"][label_key]
            if entry.get("kind") == "histogram":
                mean = value["sum"] / value["count"] if value["count"] else 0
                shown = (f"count={value['count']} mean={mean:.4g} "
                         f"min={value['min']:.4g} max={value['max']:.4g}")
                quantiles = " ".join(
                    f"{name}={value[name]:.4g}"
                    for name in ("p50", "p90", "p99") if name in value)
                if quantiles:
                    shown += f" {quantiles}"
            else:
                shown = value
            rows.append((name, entry.get("kind", "?"), label_key or "-",
                         shown))
    table = format_table(("metric", "kind", "labels", "value"), rows)
    rates = observability.get("hit_rates") or {}
    rate_lines = "\n".join(f"  {name}: {value:.1%}"
                           for name, value in sorted(rates.items()))
    footer = f"\nhit rates:\n{rate_lines}" if rate_lines else ""
    return (f"metrics of run {manifest.get('created_utc', '?')}  "
            f"command={manifest.get('command', '?')!r}\n\n{table}{footer}")


def render_manifest(manifest: dict) -> str:
    """Human summary of one manifest (the body of ``repro report``)."""
    from repro.report.tables import format_table

    rows = []
    for entry in manifest["experiments"]:
        bands = entry.get("bands")
        band_text = ("-" if bands is None
                     else f"{bands['passed']}/{bands['passed'] + bands['failed']} pass")
        if not entry["ok"]:
            status = "FAILED"
        elif entry.get("experiment_cached"):
            status = "ok (cached)"
        else:
            status = "ok"
        rows.append((
            entry["experiment_id"],
            status,
            f"{entry['duration_s'] * 1e3:.1f} ms",
            entry.get("cache_hits", 0),
            entry.get("cache_misses", 0),
            entry.get("kernels", 0),
            band_text,
        ))
    table = format_table(
        ("experiment", "status", "wall-clock", "hits", "misses",
         "kernels", "bands"), rows)
    totals = manifest["totals"]
    header = (f"run {manifest['created_utc']}  "
              f"command={manifest['command']!r}  jobs={manifest['jobs']}")
    footer = (f"{totals['experiments']} experiments, "
              f"{totals['failed']} failed, "
              f"{totals['duration_s']:.2f} s total, "
              f"cache {totals['cache_hits']} hits / "
              f"{totals['cache_misses']} misses, "
              f"{totals['kernels']} kernels profiled")
    return f"{header}\n\n{table}\n\n{footer}"
