"""One GEMM timing model.

:func:`repro.hw.gemm_model.gemm_terms` is the only tile/wave/K-loop
expression of the analytical backend; :mod:`repro.hw.microsim` replays
the same tiles wave by wave as the documented second backend.  The guard
keeps a third copy from growing back: no other module of the package
reads the model's tile candidates or its K-loop knob, and only the
device definition and the calibration fit besides read the GEMM
bandwidth ceiling.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent

MODEL = {"hw/gemm_model.py", "hw/microsim.py"}

#: Knob -> the only modules that may read it.
KNOB_READERS = {
    "TILE_CANDIDATES": MODEL,
    "gemm_k_half": MODEL,
    "gemm_mem_efficiency": MODEL | {"hw/device.py", "hw/calibration.py"},
}


def _reads(tree: ast.AST) -> set[str]:
    """Every name a module loads, imports or reads as an attribute."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@functools.cache
def _module_reads() -> dict[str, set[str]]:
    return {str(path.relative_to(PACKAGE)):
            _reads(ast.parse(path.read_text(), filename=str(path)))
            for path in PACKAGE.rglob("*.py")}


@pytest.mark.parametrize("knob", sorted(KNOB_READERS))
def test_only_the_gemm_model_reads_its_knobs(knob):
    readers = {module for module, names in _module_reads().items()
               if knob in names}
    assert "hw/gemm_model.py" in readers
    assert readers <= KNOB_READERS[knob], sorted(readers - KNOB_READERS[knob])
