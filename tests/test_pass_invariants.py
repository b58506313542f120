"""Pass-composition invariants over generated configurations.

Every registered trace pass, alone and in every ordered pair, runs over
the small generated models and operating points of
``tests/test_iteration_layout.py``.  The pass manager validates the trace
after every pass, so a pipeline that runs at all produced structurally
valid traces.  On top of that, the property checks what each rewrite
promises:

* two runs of the same pipeline give identical kernels, row order and
  provenance;
* elementwise fusion conserves FLOPs and never increases bytes;
* checkpointing adds exactly one backward ``recompute.`` replay of every
  encoder forward row, and nothing else;
* every row a pass mints or rewrites carries that pass's provenance;
* a pipeline that would checkpoint an already checkpointed trace (two
  ``checkpointing`` passes, or one over a checkpointing training) is
  rejected with a ``ValueError`` instead of replaying the forward twice.

A second property applies each idempotent pass twice and requires the
same kernels and provenance as applying it once.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.base import Component, Phase
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.passes import PassManager, available_passes, build_pipeline
from tests.test_iteration_layout import (_provenance, bert_configs,
                                         training_configs)

#: Optional ``name:arg`` values per parameterized pass.
PASS_ARGS = {
    "windowed_attention": st.sampled_from((4, 8, 16, 64)),
    "checkpointing": st.integers(1, 4),
    "shard_optimizer": st.integers(1, 8),
}


@st.composite
def pass_tokens(draw, names=None) -> str:
    name = draw(st.sampled_from(names or sorted(available_passes())))
    if name in PASS_ARGS and draw(st.booleans()):
        return f"{name}:{draw(PASS_ARGS[name])}"
    return name


pipeline_specs = st.lists(pass_tokens(), min_size=1, max_size=2).map(
    ",".join)


def _rows(trace) -> Counter:
    """Multiset of (kernel, producing pass) over a trace's rows."""
    return Counter(zip(trace.kernels, _provenance(trace.table)))


def _check_step(name: str, before, after) -> None:
    minted = _rows(after) - _rows(before)
    assert {prov for _, prov in minted} <= {name}, name

    if name == "fuse_elementwise":
        assert after.total_flops == before.total_flops
        assert after.total_bytes <= before.total_bytes

    if name == "checkpointing":
        replayed = Counter(
            dataclasses.replace(k, name=f"recompute.{k.name}",
                                phase=Phase.BACKWARD)
            for k in before.kernels
            if k.phase is Phase.FORWARD and k.layer_index is not None
            and k.component is Component.TRANSFORMER)
        added = Counter(after.kernels) - Counter(before.kernels)
        assert added == replayed
        assert len(after) - len(before) == sum(replayed.values())


@given(model=bert_configs(), training=training_configs,
       spec=pipeline_specs)
@settings(max_examples=80, deadline=None)
def test_pass_pipelines_keep_their_invariants(model, training, spec):
    trace = build_iteration_trace(model, training)
    pipeline = build_pipeline(spec)
    checkpointings = sum(trace_pass.name == "checkpointing"
                         for trace_pass in pipeline.passes)
    if checkpointings + training.activation_checkpointing > 1:
        with pytest.raises(ValueError, match="already holds recompute"):
            pipeline.run(trace)
        return
    out = pipeline.run(trace)  # validates after every pass

    again = build_pipeline(spec).run(trace)
    assert again.kernels == out.kernels
    assert _provenance(again.table) == _provenance(out.table)

    for trace_pass in pipeline.passes:
        after = PassManager((trace_pass,)).run(trace)
        _check_step(trace_pass.name, trace, after)
        trace = after
    assert trace.kernels == out.kernels


#: Passes whose second application changes nothing.  Not here:
#: ``shard_optimizer`` divides the optimizer rows again on every
#: application, and ``checkpointing`` rejects a trace it already replayed
#: (pinned by the property above).
IDEMPOTENT_PASSES = ("fuse_elementwise", "fused_attention",
                     "windowed_attention", "offload_optimizer")


@given(model=bert_configs(), training=training_configs,
       spec=pass_tokens(IDEMPOTENT_PASSES))
@settings(max_examples=60, deadline=None)
def test_idempotent_passes_applied_twice_equal_once(model, training, spec):
    trace = build_iteration_trace(model, training)
    once = build_pipeline(spec).run(trace)
    twice = build_pipeline(f"{spec},{spec}").run(trace)
    assert twice.kernels == once.kernels
    assert _provenance(twice.table) == _provenance(once.table)
