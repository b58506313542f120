"""The one iteration layout holds for generated configurations.

Every builder and the grid stamp lay an iteration out through
:func:`repro.trace.bert_trace.iteration_layout`.  For small generated
model and training configurations this property pins that layout to the
per-layer reference walk, to the one-point grid stamp, and to the
one-way sliced builder, and checks that the result validates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BertConfig, Precision, TrainingConfig
from repro.distributed import build_sliced_iteration_trace
from repro.grid.engine import build_grid_trace
from repro.trace.bert_trace import build_iteration_trace
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
