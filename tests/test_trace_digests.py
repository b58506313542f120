"""Frozen kernel digests of the builder and every trace pass.

``tests/golden/trace_digests.json`` holds, for each case below, the
kernel count and the sha256 of the trace's kernel reprs, one per line.
``Kernel`` is a dataclass, so its repr spells every field ``==``
compares: a digest match is full record equality, row order included.

The digests were computed once from the per-layer walk and the
list-scan transforms the layer-templated builder and the columnar passes
replaced, and are never regenerated: a change that should not move a
kernel must leave this file green.  The cases are the registry's
operating-point families (the Fig. 3 points, a Base point, checkpointing,
the unfused optimizer, Adam and SGD), Base inference and fine-tuning,
every registered rewrite on a tiny FP32 and a Large mixed trace, the
sliced build and one composed pipeline.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, FIG3_POINTS,
                          Precision, training_point)
from repro.distributed import build_sliced_iteration_trace
from repro.fusion import (ElementwiseChainFusionPass, FusedAttentionPass,
                          WindowedAttentionPass)
from repro.memoryplan import CheckpointingPass
from repro.ops.windowed_attention import WindowConfig
from repro.trace import PassManager, build_iteration_trace
from repro.trace.variants import build_finetuning_trace, build_inference_trace

GOLDEN = Path(__file__).parent / "golden" / "trace_digests.json"

# Every operating-point family the registry experiments touch: the Fig. 3
# points, the Fig. 8 batch ladder corner, checkpointing (Sec. 4), the
# unfused-optimizer ablation (Fig. 12), and the adam/sgd emitters.
PRETRAIN_POINTS = [
    ("large-" + name, BERT_LARGE, training)
    for name, training in zip(
        ("ph1-b32", "ph1-b4", "ph2-b4", "ph1-b32-mixed", "ph2-b4-mixed"),
        FIG3_POINTS)
] + [
    ("base-ph1-b16", BERT_BASE, training_point(1, 16, Precision.FP32)),
    ("tiny-ph2-b4-ckpt", BERT_TINY,
     training_point(2, 4, Precision.FP32, activation_checkpointing=True)),
    ("tiny-ph1-b32-unfused", BERT_TINY,
     training_point(1, 32, Precision.FP32, fuse_optimizer=False)),
    ("tiny-ph1-b8-adam", BERT_TINY,
     training_point(1, 8, Precision.MIXED, optimizer="adam")),
    ("tiny-ph1-b8-sgd", BERT_TINY,
     training_point(1, 8, Precision.FP32, optimizer="sgd")),
]

INFERENCE = (BERT_BASE, training_point(1, 8, Precision.MIXED))
FINETUNING = (BERT_BASE, training_point(1, 8, Precision.FP32))

#: The two base traces every pass case rewrites.
PASS_BASES = {
    "tiny": (BERT_TINY, training_point(1, 2, Precision.FP32)),
    "large": (BERT_LARGE, training_point(2, 4, Precision.MIXED)),
}

#: Pass case -> (passes, base traces it runs on).
PASS_CASES = {
    "fuse_elementwise": ((ElementwiseChainFusionPass(),), ("tiny", "large")),
    "checkpointing": ((CheckpointingPass(),), ("tiny", "large")),
    "checkpointing:4": ((CheckpointingPass(4),), ("large",)),
    "fused_attention": ((FusedAttentionPass(),), ("tiny", "large")),
    "windowed_attention": ((WindowedAttentionPass(),), ("tiny", "large")),
    "windowed_attention:32x5": (
        (WindowedAttentionPass(WindowConfig(block=32, window_blocks=5)),),
        ("large",)),
    "fuse_elementwise,checkpointing": (
        (ElementwiseChainFusionPass(), CheckpointingPass()), ("tiny",)),
}

SLICED_WAYS = (1, 4)


def _case_builders() -> dict:
    cases = {f"pretrain/{name}": (lambda m=model, t=training:
                                  build_iteration_trace(m, t))
             for name, model, training in PRETRAIN_POINTS}
    cases["inference/base-ph1-b8-mixed"] = (
        lambda: build_inference_trace(*INFERENCE))
    cases["finetuning/base-ph1-b8-fp32"] = (
        lambda: build_finetuning_trace(*FINETUNING))
    for spec, (passes, bases) in PASS_CASES.items():
        for base in bases:
            cases[f"pass/{spec}/{base}"] = (
                lambda p=passes, b=base: PassManager(p).run(
                    build_iteration_trace(*PASS_BASES[b])))
    for ways in SLICED_WAYS:
        cases[f"sliced/{ways}/tiny"] = (
            lambda w=ways: build_sliced_iteration_trace(
                *PASS_BASES["tiny"], w))
    return cases


#: Case id -> zero-argument callable building the trace.
CASES = _case_builders()


def trace_digest(trace) -> dict:
    """Kernel count and sha256 of the newline-joined kernel reprs."""
    text = "\n".join(repr(k) for k in trace.kernels)
    return {"kernels": len(trace),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@functools.cache
def frozen_digests() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_frozen(case: str, trace) -> None:
    """``trace`` has exactly the kernels frozen for ``case``."""
    assert trace_digest(trace) == frozen_digests()[case], case


def test_golden_file_covers_exactly_the_cases():
    assert sorted(frozen_digests()) == sorted(CASES)
    assert len(CASES) == 25


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_frozen_digest(case):
    assert_frozen(case, CASES[case]())
