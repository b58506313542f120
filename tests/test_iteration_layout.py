"""The one iteration layout holds for generated configurations.

Every builder and the grid stamp lay an iteration out through
:func:`repro.trace.bert_trace.iteration_layout`.  For small generated
model and training configurations this property pins that layout to
closed forms, to the one-point grid stamp, and to the one-way sliced
builder, and checks that the result validates.  The closed forms are the
GEMM accounting of Table 2b (the FLOP formulas of Anthony et al., arXiv
2401.14489): with ``T = B * n`` tokens,

* the encoder GEMMs execute ``c * N * (8 T d^2 + 4 T d d_ff + 4 B n^2 d)``
  FLOPs, ``c = 3`` (forward, activation gradient, weight gradient) or
  ``c = 4`` under activation checkpointing (the forward replayed once);
* the heads execute ``3 * (2 T d^2 + 2 T d V + 2 B d^2 + 4 B d)``: the
  MLM transform and decoder over all ``T`` positions, pooler and NSP over
  the ``B`` sequences;
* the optimizer writes each of the ``P`` parameters once per update
  stage, at the per-element width of its state;
* forward layers ascend, backward layers descend, and every encoder layer
  repeats layer 0's rows in each phase.

A second property stamps generated multi-point grids under pass pipelines
and pins every point's rows, provenance and times to its own build.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BertConfig, Precision, TrainingConfig
from repro.distributed import build_sliced_iteration_trace
from repro.grid.engine import build_grid_trace, profile_grid
from repro.hw.device import mi100
from repro.ops.base import Component, Phase
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.passes import build_pipeline
from repro.trace.validate import validate_trace


@st.composite
def bert_configs(draw) -> BertConfig:
    num_heads = draw(st.sampled_from((1, 2, 4)))
    d_head = draw(st.sampled_from((8, 16, 32)))
    d_model = num_heads * d_head
    return BertConfig(num_layers=draw(st.integers(1, 4)), d_model=d_model,
                      num_heads=num_heads,
                      d_ff=d_model * draw(st.sampled_from((2, 4))),
                      vocab_size=draw(st.integers(64, 512)),
                      name="generated")


training_configs = st.builds(
    TrainingConfig,
    batch_size=st.integers(1, 8),
    seq_len=st.sampled_from((8, 16, 32, 128)),
    precision=st.sampled_from(tuple(Precision)),
    activation_checkpointing=st.booleans(),
    fuse_optimizer=st.booleans(),
    optimizer=st.sampled_from(("lamb", "adam", "sgd")))


#: Per optimizer: the fused kernels' name prefix and the bytes they write
#: per parameter (FP32 state: LAMB stage 2 writes the weight, Adam the
#: moments and the weight, SGD the momentum and the weight).
FUSED_OPTIMIZER_WRITES = {"lamb": ("lamb.stage2.", 4),
                          "adam": ("adam.fused.", 12),
                          "sgd": ("sgd.fused", 8)}


def _check_gemm_flops(model, training, kernels) -> None:
    batch, seq = training.batch_size, training.seq_len
    d, d_ff, vocab = model.d_model, model.d_ff, model.vocab_size
    tokens = batch * seq
    flops = Counter()
    for kernel in kernels:
        if kernel.op_class.is_gemm:
            flops[kernel.component] += kernel.flops
    # Forward, activation gradient, weight gradient (+ the replayed forward).
    factor = 4 if training.activation_checkpointing else 3
    assert flops[Component.TRANSFORMER] == factor * model.num_layers * (
        8 * tokens * d * d + 4 * tokens * d * d_ff + 4 * batch * seq * seq * d)
    assert flops[Component.OUTPUT] == 3 * (
        2 * tokens * d * d + 2 * tokens * d * vocab
        + 2 * batch * d * d + 4 * batch * d)
    assert set(flops) <= {Component.TRANSFORMER, Component.OUTPUT}


def _check_optimizer_bytes(model, training, kernels) -> None:
    params = model.total_parameters()
    if training.fuse_optimizer:
        prefix, width = FUSED_OPTIMIZER_WRITES[training.optimizer]
        written = sum(k.bytes_written for k in kernels
                      if k.name.startswith(prefix))
        assert written == width * params
    else:
        written = sum(k.bytes_written for k in kernels
                      if k.name.endswith(".p_sub"))
        assert written == 4 * params
    cast_back = [(k.bytes_read, k.bytes_written) for k in kernels
                 if k.name == "optimizer.weight_cast_back"]
    mixed = training.precision is Precision.MIXED
    assert cast_back == ([(4 * params, 2 * params)] if mixed else [])


def _check_layer_order(kernels) -> None:
    encoder = [k for k in kernels if k.component is Component.TRANSFORMER]
    forward = [k.layer_index for k in encoder if k.phase is Phase.FORWARD]
    assert forward == sorted(forward)
    backward = [k.layer_index for k in encoder if k.phase is Phase.BACKWARD
                and not k.name.startswith("recompute.")]
    assert backward == sorted(backward, reverse=True)
    rows = defaultdict(list)
    for kernel in encoder:
        rows[kernel.phase, kernel.layer_index].append(kernel.with_layer(0))
    for (phase, _), layer_rows in rows.items():
        assert layer_rows == rows[phase, 0]


@given(model=bert_configs(), training=training_configs)
@settings(max_examples=40, deadline=None)
def test_every_assembly_path_lays_out_the_same_iteration(model, training):
    trace = build_iteration_trace(model, training)
    kernels = trace.kernels
    _check_gemm_flops(model, training, kernels)
    _check_optimizer_bytes(model, training, kernels)
    _check_layer_order(kernels)

    grid = build_grid_trace([(model, training)])
    assert grid.point_trace(0).kernels == trace.kernels

    if not training.activation_checkpointing:
        sliced = build_sliced_iteration_trace(model, training, 1)
        assert sliced.kernels == trace.kernels

    report = validate_trace(trace)
    assert report.ok, report.errors


#: Pass pipelines the multi-point property runs each generated grid under.
GRID_PIPELINES = ("", "fuse_elementwise", "fused_attention",
                  "fuse_elementwise,checkpointing:2")


def _provenance(table) -> list:
    """Per-row producing-pass name (``None`` for generator rows)."""
    return [None if code < 0 else table.provenance_names[code]
            for code in table.provenance.tolist()]


@st.composite
def grid_families(draw) -> tuple[BertConfig, list[TrainingConfig]]:
    """A model plus 2-4 trainings sharing every structural field.

    Batch sizes and sequence lengths vary per point, so with one head a
    batch of one lands in a different stamp family (``B * h == 1``) than
    its neighbours and the grid mixes families.
    """
    model = draw(bert_configs())
    shared = dict(precision=draw(st.sampled_from(tuple(Precision))),
                  optimizer=draw(st.sampled_from(("lamb", "adam", "sgd"))),
                  fuse_optimizer=draw(st.booleans()),
                  activation_checkpointing=draw(st.booleans()))
    trainings = draw(st.lists(
        st.builds(TrainingConfig, batch_size=st.integers(1, 8),
                  seq_len=st.sampled_from((8, 16, 32, 128)), **{
                      key: st.just(value) for key, value in shared.items()}),
        min_size=2, max_size=4))
    return model, trainings


@given(family=grid_families())
@settings(max_examples=40, deadline=None)
def test_multi_point_grid_equals_per_point_builds(family):
    model, trainings = family
    device = mi100()
    for spec in GRID_PIPELINES:
        passes = build_pipeline(spec) if spec else None
        if "checkpointing" in spec and trainings[0].activation_checkpointing:
            # Checkpointing a checkpointed family would replay it twice.
            with pytest.raises(ValueError, match="already holds recompute"):
                profile_grid([(model, t) for t in trainings], device,
                             passes=passes)
            continue
        grid = profile_grid([(model, t) for t in trainings], device,
                            passes=passes)
        for index, training in enumerate(trainings):
            expected = build_iteration_trace(model, training)
            if passes is not None:
                expected = passes.run(expected)
            got = grid.trace.point_trace(index)
            assert got.kernels == expected.kernels, (spec, index)
            assert _provenance(got.table) == _provenance(expected.table)
            times = grid.point_profile(index).times
            assert np.array_equal(times,
                                  profile_trace(expected, device).times)
