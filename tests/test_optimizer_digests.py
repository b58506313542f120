"""Frozen kernel digests of the optimizer update phase and of Fig. 12a.

``tests/golden/optimizer_digests.json`` holds, for every optimizer
emission below, the kernel count and the sha256 of the newline-joined
kernel reprs (the format of ``tests/golden/trace_digests.json``), and
the ``repr`` of the two :class:`~repro.fusion.passes.FusionImpact`
studies of ``fig12.run()``.  The cases are ``{lamb, adam, sgd} x
{fused, unfused} x {FP32, MIXED}`` over the BERT Large, BERT Base and
4-way sliced BERT Large parameter inventories.

The digests were computed once from the per-tensor ``Kernel``-list
emitters and are never regenerated: the emitter's return value is read
through :meth:`KernelTable.coerce`, so any emission of the same rows
matches.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.config import BERT_BASE, BERT_LARGE, Precision
from repro.distributed import sliced_parameter_inventory
from repro.experiments import fig12
from repro.optim import optimizer_kernels
from repro.trace import bert_parameter_inventory
from repro.trace.kernel_table import KernelTable

GOLDEN = Path(__file__).parent / "golden" / "optimizer_digests.json"

INVENTORIES = {
    "large": lambda: bert_parameter_inventory(BERT_LARGE),
    "base": lambda: bert_parameter_inventory(BERT_BASE),
    "large-sliced4": lambda: sliced_parameter_inventory(BERT_LARGE, 4),
}
OPTIMIZERS = ("lamb", "adam", "sgd")
FUSED = {"fused": True, "unfused": False}
PRECISIONS = {"fp32": Precision.FP32, "mixed": Precision.MIXED}

#: Emitter case id -> (optimizer, inventory, fused, precision).
CASES = {
    f"{name}/{fusing}/{precision}/{inventory}": (
        name, inventory, FUSED[fusing], PRECISIONS[precision])
    for name, fusing, precision, inventory in itertools.product(
        OPTIMIZERS, FUSED, PRECISIONS, INVENTORIES)
}
FIG12_STUDIES = ("layernorm", "adam")


def emission_digest(kernels) -> dict:
    """Kernel count and sha256 of the newline-joined kernel reprs."""
    records = KernelTable.coerce(kernels).to_kernels()
    text = "\n".join(repr(k) for k in records)
    return {"kernels": len(records),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@functools.cache
def frozen() -> dict:
    return json.loads(GOLDEN.read_text())


@functools.cache
def inventory(key: str):
    return INVENTORIES[key]()


def test_golden_file_covers_exactly_the_cases():
    expected = sorted(CASES) + [f"fig12/{s}" for s in FIG12_STUDIES]
    assert sorted(frozen()) == sorted(expected)
    assert len(CASES) == 36


@pytest.mark.parametrize("case", sorted(CASES))
def test_emission_matches_frozen_digest(case):
    name, key, fused, precision = CASES[case]
    kernels = optimizer_kernels(name, inventory(key), precision=precision,
                                fused=fused)
    assert emission_digest(kernels) == frozen()[case], case


def test_fig12_fusion_impacts_match_frozen_reprs():
    result = fig12.run()
    for study in FIG12_STUDIES:
        assert repr(getattr(result, study)) == frozen()[f"fig12/{study}"]
