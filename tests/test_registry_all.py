"""End-to-end smoke: every registered experiment runs and renders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import REGISTRY
from repro.runner.executor import run_one


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_entry_module_imports_and_exposes_run_and_render(experiment_id):
    # Entries name their module and import it on first call; resolving
    # here makes a misspelt module name fail this test, not `run all`.
    experiment = REGISTRY[experiment_id]
    assert callable(experiment.run.resolve())
    assert callable(experiment.render.resolve())


def test_registry_import_loads_no_experiment_module():
    # A fresh interpreter: this process has long imported everything.
    probe = ("import sys\n"
             "import repro.experiments.registry\n"
             "print(sorted(name for name in sys.modules\n"
             "             if name.startswith('repro.experiments.')))\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['repro.experiments.registry']"


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment_runs_and_renders(experiment_id):
    result = run_one(experiment_id, use_result_cache=False)
    assert result.ok, result.error
    output = result.output
    assert isinstance(output, str)
    assert len(output.strip()) > 20
    # Rendered tables/bars always carry multiple lines.
    assert "\n" in output


def test_registry_descriptions_unique_and_present():
    descriptions = [e.description for e in REGISTRY.values()]
    assert all(descriptions)
    assert len(set(descriptions)) == len(descriptions)


def test_cli_run_all(capsys):
    from repro.cli import main
    assert main(["run", "all"]) == 0
    out = capsys.readouterr().out
    for experiment_id in REGISTRY:
        assert f"{experiment_id}:" in out


def test_cli_export(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "fig3.csv")
    assert main(["export", "fig3", path]) == 0
    with open(path) as handle:
        header = handle.readline()
    assert header.startswith("label,")


def test_cli_export_rejects_non_row_experiment(tmp_path, capsys):
    from repro.cli import main
    assert main(["export", "fig4", str(tmp_path / "x.csv")]) == 2
