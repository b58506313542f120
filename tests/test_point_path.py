"""One path from an operating point to a profile.

Every full-iteration operating point is priced by
:func:`repro.experiments.common.run_point`, so every experiment's run
manifest counts the points it priced.  The guard keeps the path single:
no other module of the package combines ``iteration_trace`` with
``profile_trace``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.experiments import common
from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest
from repro.trace.bert_trace import clear_iteration_traces

PACKAGE = Path(repro.__file__).parent

#: Experiments that price BERT operating points through the distributed,
#: NMC and Sec. 7 models.
POINT_EXPERIMENTS = ("fig11", "zero", "pipeline", "nmc", "sec7")


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or looks up as an attribute."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_only_run_point_combines_iteration_trace_and_profile_trace():
    both = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if {"iteration_trace", "profile_trace"}
        <= _identifiers(ast.parse(path.read_text(), filename=str(path))))
    assert both == ["experiments/common.py"]


@pytest.fixture
def priced_kernels(monkeypatch):
    """Kernel count of every profile ``run_point`` prices, in call order."""
    counts: list[int] = []
    price = common.profile_trace

    def counting(trace, device):
        profile = price(trace, device)
        counts.append(len(profile))
        return profile
    monkeypatch.setattr(common, "profile_trace", counting)
    return counts


@pytest.mark.parametrize("experiment_id", POINT_EXPERIMENTS)
def test_manifest_counts_the_points_an_experiment_prices(
        experiment_id, priced_kernels):
    clear_iteration_traces()
    [result] = run_experiments([experiment_id], jobs=1,
                               use_result_cache=False)
    assert result.ok, result.error
    recorded = build_manifest([result], jobs=1, command="test")
    [entry] = recorded["experiments"]
    assert entry["points"] == len(priced_kernels) > 0
    assert entry["kernels"] == sum(priced_kernels) > 0
    assert recorded["totals"]["kernels"] == sum(priced_kernels)
