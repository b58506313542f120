"""One default device per process.

Every ``device=None`` default resolves to the same
:func:`repro.hw.device.default_device` object, so the per-device GEMM
memo of :mod:`repro.hw.timing` warmed by one caller serves the next.
The guard keeps new fresh-``mi100()`` defaults out of the package: only
the device module itself and the two studies that need separate device
objects (the cross-device transfer study, and robustness, which perturbs
a copy) build one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.config import BERT_TINY, TrainingConfig
from repro.experiments import common
from repro.grid.engine import grid_points, profile_grid
from repro.hw import device as hw_device
from repro.obs import metrics

PACKAGE = Path(repro.__file__).parent

#: Modules allowed to call ``mi100()``.
MI100_CALLERS = ["experiments/robustness.py",
                 "experiments/transfer_study.py", "hw/device.py"]


def _calls_mi100(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "mi100":
                return True
    return False


def test_mi100_called_only_where_a_separate_device_is_needed():
    callers = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if _calls_mi100(ast.parse(path.read_text(), filename=str(path))))
    assert callers == MI100_CALLERS


def test_default_device_is_one_object():
    assert hw_device.default_device() is hw_device.default_device()
    assert common.default_device is hw_device.default_device
    assert hw_device.mi100() is not hw_device.default_device()


def test_default_grid_warms_run_point_memo():
    lookups = metrics.counter("gemm_memo.lookups")
    training = TrainingConfig(batch_size=3, seq_len=24)
    profile_grid(grid_points(BERT_TINY, [training]))
    hits = lookups.value(result="hit")
    misses = lookups.value(result="miss")
    common.run_point(BERT_TINY, training)
    assert lookups.value(result="hit") > hits
    assert lookups.value(result="miss") == misses
