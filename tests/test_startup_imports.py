"""Import budget: commands that run no experiment load no engine code.

``repro list``, ``repro cache info``, a ``repro run`` answered wholly
from the result cache and ``repro report``/``spans``/``stats`` over a
written manifest must not import numpy or any engine package; the
engine loads only when an experiment actually has to run.  Each check
runs in a fresh interpreter, because this test process has long imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import REGISTRY

#: Top-level modules a cache-answerable command must leave unloaded.
ENGINE = ("numpy",) + tuple(
    f"repro.{package}" for package in
    ("hw", "ops", "trace", "profiler", "tensor", "model", "grid", "data",
     "optim"))

_PROBE = """\
import json, sys
{setup}
from repro.cli import main
code = main({argv!r})
engine = sorted(name for name in sys.modules
                if any(name == root or name.startswith(root + ".")
                       for root in {engine!r}))
print(json.dumps({{"code": code, "engine": engine}}))
"""


#: Probe setup filling the result cache with one entry per experiment,
#: keyed on the probe's own source digest, without running any of them.
_FILL_CACHE = """\
from repro.experiments.registry import REGISTRY
from repro.runner.cache import get_cache
cache = get_cache()
for eid, experiment in REGISTRY.items():
    cache.put_payload(cache.experiment_key(eid, experiment.description),
                      {"output": f"cached {eid}", "bands": None})
"""


def _probe(argv: list[str], state: Path, setup: str = "") -> dict:
    """Run ``main(argv)`` in a fresh interpreter; exit code + engine modules.

    ``setup`` runs first, in the same interpreter.  The probe's JSON is
    the last stdout line (the command prints first).
    """
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src,
               REPRO_CACHE_DIR=str(state / "cache"),
               REPRO_RUNS_DIR=str(state / "runs"))
    env.pop("REPRO_FAULTS", None)
    out = subprocess.run(
        [sys.executable, "-c",
         _PROBE.format(setup=setup, argv=argv, engine=ENGINE)],
        env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    return {**json.loads(lines[-1]), "stdout": "\n".join(lines[:-1])}


def test_list_loads_no_engine(tmp_path):
    result = _probe(["list"], tmp_path)
    assert result["code"] == 0
    assert result["engine"] == []
    assert all(eid in result["stdout"] for eid in REGISTRY)


def test_cache_info_loads_no_engine(tmp_path):
    result = _probe(["cache", "info"], tmp_path)
    assert result["code"] == 0
    assert result["engine"] == []


def test_warm_run_all_loads_no_engine(tmp_path):
    result = _probe(["run", "all", "--no-manifest"], tmp_path,
                    setup=_FILL_CACHE)
    assert result["code"] == 0
    assert result["engine"] == []
    for eid in REGISTRY:  # every report came from the cache
        assert f"\ncached {eid}\n" in result["stdout"] + "\n"


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    """State holding one run manifest, written by a warm ``run all``."""
    state = tmp_path_factory.mktemp("state")
    assert _probe(["run", "all"], state, setup=_FILL_CACHE)["code"] == 0
    return state


@pytest.mark.parametrize("command", ["report", "spans", "stats"])
def test_manifest_commands_load_no_engine(written_run, command):
    result = _probe([command], written_run)
    assert result["code"] == 0
    assert result["engine"] == []


def test_cold_run_loads_the_engine(tmp_path):
    # Positive control: the probe does see engine imports when an
    # experiment has to run, so the empty lists above are not vacuous.
    result = _probe(["run", "nmc", "--no-manifest"], tmp_path)
    assert result["code"] == 0
    assert "numpy" in result["engine"]
