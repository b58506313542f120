"""End-to-end golden: every registered experiment's rendered report.

``run_experiments(list(REGISTRY), jobs=1)`` runs once on a fresh, empty
result cache, and each experiment's ``output`` must match its fixture
under ``tests/golden/run_all/`` byte for byte.  A refactor that drifts any
figure — one digit of one table — fails here and names the experiment.
The same run pins the cache traffic it leaves behind: one entry per
experiment plus fig3's grid summary, and no per-point entry.

Regenerate the fixtures only after an intentional model change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_run_all_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY
from repro.runner import cache
from repro.runner.executor import run_experiments
from repro.trace.bert_trace import clear_iteration_traces

GOLDEN_DIR = Path(__file__).parent / "golden" / "run_all"


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """Rendered output per experiment id, computed on a cold cache, and
    the payload of every entry that run left in the cache, by key."""
    mp = pytest.MonkeyPatch()
    mp.setenv(cache.CACHE_DIR_ENV,
              str(tmp_path_factory.mktemp("run_all_golden")))
    cache.reset_cache()
    clear_iteration_traces()
    try:
        results = run_experiments(list(REGISTRY), jobs=1)
        reader = cache.ResultCache()
        entries = {path.stem: reader.get_payload(path.stem)
                   for path in reader.entries()}
    finally:
        mp.undo()
        cache.reset_cache()
        clear_iteration_traces()
    failed = [r.experiment_id for r in results if not r.ok]
    assert not failed, f"experiments failed: {failed}"
    return {r.experiment_id: r.output for r in results}, entries


@pytest.fixture(scope="module")
def outputs(cold_run):
    return cold_run[0]


def test_cold_run_caches_experiments_and_one_grid(cold_run):
    _, entries = cold_run
    keys = cache.ResultCache()
    experiment_keys = {keys.experiment_key(eid, exp.description)
                       for eid, exp in REGISTRY.items()}
    assert experiment_keys <= set(entries)
    [grid] = [payload for key, payload in entries.items()
              if key not in experiment_keys]
    assert set(grid) == {"rows", "kernels"}  # fig3's grid summary
    assert len(entries) == len(REGISTRY) + 1
    # Every entry is a dict payload: none is a (Trace, Profile) pair.
    assert all(isinstance(payload, dict) for payload in entries.values())


def test_every_experiment_has_a_fixture(outputs):
    if not os.environ.get("REPRO_REGEN_GOLDEN"):
        on_disk = sorted(p.stem for p in GOLDEN_DIR.glob("*.txt"))
        assert on_disk == sorted(outputs)


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_output_matches_golden(outputs, experiment_id):
    golden = GOLDEN_DIR / f"{experiment_id}.txt"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(outputs[experiment_id].encode())
    assert outputs[experiment_id].encode() == golden.read_bytes()
