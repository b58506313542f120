"""The one iteration layout holds for generated configurations.

Every builder and the grid stamp lay an iteration out through
:func:`repro.trace.bert_trace.iteration_layout`.  For small generated
model and training configurations this property pins that layout to the
per-layer reference walk, to the one-point grid stamp, and to the
one-way sliced builder, and checks that the result validates.  A second
property stamps generated multi-point grids under pass pipelines and pins
every point's rows, provenance and times to its own build.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BertConfig, Precision, TrainingConfig
from repro.distributed import build_sliced_iteration_trace
from repro.grid.engine import build_grid_trace, profile_grid
from repro.hw.device import mi100
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.passes import build_pipeline
from repro.trace.reference import reference_iteration_trace
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


@given(model=bert_configs(), training=training_configs)
@settings(max_examples=40, deadline=None)
def test_every_assembly_path_lays_out_the_same_iteration(model, training):
    trace = build_iteration_trace(model, training)
    assert trace.kernels == reference_iteration_trace(model, training).kernels

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
