"""Experiment-runner subsystem: cache, parallel executor, manifests.

The paper's evaluation is a battery of per-figure experiments; this package
makes replaying that battery fast and trustworthy:

* :mod:`repro.runner.cache` — a content-addressed, disk-backed cache of
  experiment outputs and grid summaries, keyed on one digest of the
  package source (plus the configs and device fingerprint for grids),
  shared by every process and surviving across invocations;
* :mod:`repro.runner.executor` — runs a batch of registered experiments,
  optionally across processes, with per-experiment isolation so one
  failure cannot abort the batch;
* :mod:`repro.runner.manifest` — JSON run manifests under ``runs/`` and
  the ``repro report`` summary.
"""

from repro.runner.cache import (CacheStats, ResultCache, configure_cache,
                                default_cache_dir, get_cache, reset_cache)
from repro.runner.executor import ExperimentResult, run_experiments
from repro.runner.manifest import (latest_manifest_path, load_manifest,
                                   render_manifest, write_manifest)

__all__ = [
    "CacheStats", "ResultCache", "configure_cache", "default_cache_dir",
    "get_cache", "reset_cache",
    "ExperimentResult", "run_experiments",
    "latest_manifest_path", "load_manifest", "render_manifest",
    "write_manifest",
]
