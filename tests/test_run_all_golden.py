"""End-to-end golden: every registered experiment's rendered report.

``run_experiments(list(REGISTRY), jobs=1)`` runs once on a fresh, empty
result cache, and each experiment's ``output`` must match its fixture
under ``tests/golden/run_all/`` byte for byte.  A refactor that drifts any
figure — one digit of one table — fails here and names the experiment.

Regenerate the fixtures only after an intentional model change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_run_all_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import common
from repro.experiments.registry import REGISTRY
from repro.runner import cache
from repro.runner.executor import run_experiments

GOLDEN_DIR = Path(__file__).parent / "golden" / "run_all"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Rendered output per experiment id, computed on a cold cache."""
    mp = pytest.MonkeyPatch()
    mp.setenv(cache.CACHE_DIR_ENV,
              str(tmp_path_factory.mktemp("run_all_golden")))
    cache.reset_cache()
    common.clear_memo()
    try:
        results = run_experiments(list(REGISTRY), jobs=1)
    finally:
        mp.undo()
        cache.reset_cache()
        common.clear_memo()
    failed = [r.experiment_id for r in results if not r.ok]
    assert not failed, f"experiments failed: {failed}"
    return {r.experiment_id: r.output for r in results}


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
