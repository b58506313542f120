"""Test-wide isolation for the runner subsystem.

The result cache and run manifests are durable by design; tests must not
read a developer's warm cache (a stale entry could mask a regression) nor
litter the repository with ``runs/`` manifests.  Point both at
session-scoped temporary directories before anything imports them.
"""

import contextlib

import pytest

from repro.obs import metrics
from repro.runner import cache
from repro.runner.executor import _point_counters
from repro.trace.bert_trace import clear_iteration_traces


@pytest.fixture(autouse=True, scope="session")
def _isolated_runner_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner")
    mp = pytest.MonkeyPatch()
    mp.setenv(cache.CACHE_DIR_ENV, str(root / "cache"))
    mp.setenv("REPRO_RUNS_DIR", str(root / "runs"))
    cache.reset_cache()
    clear_iteration_traces()
    yield
    mp.undo()
    cache.reset_cache()
    clear_iteration_traces()


@pytest.fixture
def point_counters():
    """Context manager yielding the manifest's operating-point counters
    (``cache_hits``, ``cache_misses``, ``kernels``, ``points``) of the
    code run inside it, filled in when the block exits."""
    @contextlib.contextmanager
    def counting():
        registry = metrics.get_registry()
        before = registry.snapshot()
        counts: dict[str, int] = {}
        yield counts
        counts.update(_point_counters(
            metrics.diff_snapshots(before, registry.snapshot())))
    return counting
