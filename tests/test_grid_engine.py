"""Grid engine: bit-exact equivalence against the run_point oracle,
sweep failure isolation, and the CSV-export bugfixes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, C1, BertConfig,
                          Precision, TrainingConfig, training_point)
from repro.experiments import sweeps
from repro.experiments.common import run_point
from repro.grid import (GridPoint, LaneTraining, build_grid_trace,
                        family_key, grid_points, grid_summaries,
                        profile_grid)
from repro.hw.device import mi100
from repro.hw.timing import kernel_times
from repro.profiler.breakdown import region_breakdown, summarize
from repro.runner.cache import get_cache
from repro.trace.bert_trace import pretraining_sections, stamp_layout
from repro.trace.passes import build_pipeline
from tests.test_iteration_layout import grid_families

TINY_GRID = [
    TrainingConfig(batch_size=batch, seq_len=seq_len, precision=precision)
    for batch in (1, 2, 8)
    for seq_len in (64, 128)
    for precision in (Precision.FP32, Precision.MIXED)
]


def _bad_point() -> TrainingConfig:
    """A point that pickles fine but fails inside the emitters."""
    training = TrainingConfig(batch_size=2, seq_len=128)
    object.__setattr__(training, "seq_len", -5)  # bypass frozen validation
    return training


# ---------------------------------------------------------------- equivalence
def _assert_point_matches(grid_profile, index, model, training, device):
    _, oracle = run_point(model, training, device)
    point = grid_profile.point_profile(index)
    assert grid_profile.point_total(index) == oracle.total_time
    assert np.array_equal(point.times, oracle.times)
    assert point.gemm_time() == oracle.gemm_time()
    assert point.non_gemm_time() == oracle.non_gemm_time()
    assert summarize(point) == summarize(oracle)
    ours = region_breakdown(point)
    theirs = region_breakdown(oracle)
    assert ours.keys() == theirs.keys()
    for region in ours:
        assert ours[region].fraction == theirs[region].fraction


def test_tiny_grid_matches_run_point_loop_bit_exactly():
    device = mi100()
    profile = profile_grid(grid_points(BERT_TINY, TINY_GRID), device)
    for index, training in enumerate(TINY_GRID):
        _assert_point_matches(profile, index, BERT_TINY, training, device)


def test_bert_large_grid_matches_run_point_loop_bit_exactly():
    device = mi100()
    points = [training_point(1, 4, Precision.FP32),
              training_point(1, 32, Precision.FP32),
              training_point(2, 4, Precision.MIXED)]
    profile = profile_grid(grid_points(BERT_LARGE, points), device)
    for index, training in enumerate(points):
        _assert_point_matches(profile, index, BERT_LARGE, training, device)


def test_grid_applies_pass_pipeline_per_point():
    device = mi100()
    passes = build_pipeline("fuse_elementwise,fused_attention")
    profile = profile_grid(grid_points(BERT_TINY, TINY_GRID), device,
                           passes=passes)
    for index, training in enumerate(TINY_GRID):
        _, oracle = run_point(BERT_TINY, training, device, passes=passes)
        assert profile.point_total(index) == oracle.total_time
        assert np.array_equal(profile.point_profile(index).times,
                              oracle.times)


def test_grid_applies_activation_checkpointing_per_point():
    device = mi100()
    points = [TrainingConfig(batch_size=batch, seq_len=128,
                             activation_checkpointing=True)
              for batch in (1, 2, 4)]
    profile = profile_grid(grid_points(BERT_TINY, points), device)
    for index, training in enumerate(points):
        _, oracle = run_point(BERT_TINY, training, device)
        assert profile.point_total(index) == oracle.total_time


def test_multi_model_grid_keeps_input_order():
    device = mi100()
    small = BertConfig(num_layers=1, d_model=64, num_heads=4, d_ff=256,
                       vocab_size=512, max_position=128, name="unit-1l")
    mixed = [(BERT_TINY, TINY_GRID[0]), (small, TINY_GRID[1]),
             (BERT_TINY, TINY_GRID[2]), (small, TINY_GRID[0])]
    profile = profile_grid(mixed, device)
    for index, (model, training) in enumerate(mixed):
        _, oracle = run_point(model, training, device)
        assert profile.point_total(index) == oracle.total_time


def test_grid_trace_row_ranges_partition_the_table():
    grid = build_grid_trace(grid_points(BERT_TINY, TINY_GRID))
    order = np.argsort(grid.starts)
    covered = 0
    for index in order:
        start, stop = grid.point_rows(int(index))
        assert start == covered
        covered = stop
        assert np.all(grid.point_index[start:stop] == index)
    assert covered == len(grid.table)


def test_lane_training_matches_scalar_derived_sizes():
    lanes = LaneTraining(TINY_GRID)
    for index, training in enumerate(TINY_GRID):
        assert lanes.tokens_per_iteration[index] == \
            training.tokens_per_iteration
        assert lanes.masked_positions[index] == training.masked_positions


def test_family_key_groups_only_compatible_points():
    base = TrainingConfig(batch_size=4, seq_len=128)
    same = TrainingConfig(batch_size=32, seq_len=512)
    assert family_key(BERT_TINY, base) == family_key(BERT_TINY, same)
    different = (
        TrainingConfig(batch_size=4, seq_len=128, precision=Precision.MIXED),
        TrainingConfig(batch_size=4, seq_len=128, optimizer="adam"),
        TrainingConfig(batch_size=4, seq_len=128, fuse_optimizer=False),
        TrainingConfig(batch_size=4, seq_len=128,
                       activation_checkpointing=True),
    )
    for training in different:
        assert family_key(BERT_TINY, training) != family_key(BERT_TINY, base)
    assert family_key(BERT_TINY, base) != family_key(BERT_LARGE, base)


def test_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        build_grid_trace([])


# -------------------------------------------------------------------- caching
def test_grid_summaries_cached_as_one_entry_per_grid():
    device = mi100()
    points = grid_points(BERT_TINY, TINY_GRID[:4])
    cache = get_cache()
    key = cache.grid_key([(p.model, p.training) for p in points], device)
    before = cache.stats.hits
    first = grid_summaries(points, device)
    again = grid_summaries(points, device)
    assert again == first
    assert cache.stats.hits > before
    assert cache.get_payload(key) is not None
    # Grid signature is order-sensitive: rows come back positionally.
    reordered = cache.grid_key(
        [(p.model, p.training) for p in reversed(points)], device)
    assert reordered != key


# ------------------------------------------------------- columnar summaries
_PROPERTY_DEVICE = mi100()

#: One head, so B = 1 puts a point in its own stamp family (B * h = 1
#: makes the attention GEMMs unbatched).
_ONE_HEAD = BertConfig(num_layers=2, d_model=64, num_heads=1, d_ff=256,
                       vocab_size=512, max_position=256, name="unit-1h")


@settings(max_examples=12, deadline=None)
@given(model=st.sampled_from([BERT_TINY, C1, BERT_BASE, _ONE_HEAD]),
       batches=st.lists(st.integers(1, 12), min_size=1, max_size=3,
                        unique=True).map(lambda b: sorted({1, *b})),
       seq_lens=st.lists(st.sampled_from([16, 48, 64, 128, 200]),
                         min_size=1, max_size=2, unique=True),
       precisions=st.lists(st.sampled_from([Precision.FP32,
                                            Precision.MIXED]),
                           min_size=1, max_size=2, unique=True),
       checkpointed=st.lists(st.booleans(), min_size=1, max_size=2,
                             unique=True))
def test_grid_summary_rows_equal_run_point_summaries(
        model, batches, seq_lens, precisions, checkpointed):
    """Block reductions (one per stamp family, one per checkpointed
    point) give every point the row ``summarize`` gives its own
    profile, field by field and bit for bit."""
    trainings = [TrainingConfig(batch_size=batch, seq_len=seq_len,
                                precision=precision,
                                activation_checkpointing=flag)
                 for batch in batches for seq_len in seq_lens
                 for precision in precisions for flag in checkpointed]
    rows = grid_summaries(grid_points(model, trainings), _PROPERTY_DEVICE)
    assert len(rows) == len(trainings)
    for training, row in zip(trainings, rows):
        _, oracle = run_point(model, training, _PROPERTY_DEVICE)
        expected = summarize(oracle)
        assert list(row) == list(expected)
        for column, value in expected.items():
            assert row[column] == value, (training.label, column)


def test_stamping_builds_no_gemm_shape_per_point(monkeypatch):
    """GEMM shapes stay a dims pool from stamping to summary rows: a
    64-point family builds no more ``GemmShape`` records than one point
    (the emitters' lane-valued templates only)."""
    from repro.ops.gemm import GemmShape

    built = []
    real = GemmShape.__post_init__

    def counting(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(GemmShape, "__post_init__", counting)

    def shapes_built(trainings):
        built.clear()
        profile_grid(grid_points(BERT_TINY, trainings), mi100()).summaries()
        return len(built)

    one = shapes_built([TrainingConfig(batch_size=2, seq_len=32)])
    many = shapes_built([TrainingConfig(batch_size=batch, seq_len=seq_len)
                         for batch in range(2, 10)
                         for seq_len in range(32, 288, 32)])
    assert one > 0
    assert many <= one


# ------------------------------------------------------ distinct-row pricing
@settings(max_examples=25, deadline=None)
@given(family=grid_families(), seed=st.integers(0, 2**32 - 1))
def test_kernel_times_commute_with_row_takes(family, seed):
    """Pricing rows then gathering equals gathering rows then pricing,
    bit for bit: what lets a grid price only its distinct rows.  Each
    side prices on its own fresh device, so no memo entry is shared."""
    model, trainings = family
    source, _, _ = stamp_layout(model.num_layers, *pretraining_sections(
        model, LaneTraining(trainings)))
    rows = np.random.default_rng(seed).integers(0, len(source),
                                                size=2 * len(source))
    taken = kernel_times(source.take(rows), mi100())
    gathered = kernel_times(source, mi100())[rows]
    assert np.array_equal(taken.view(np.int64), gathered.view(np.int64))


def test_summary_rows_get_c_ordered_times(monkeypatch):
    """Every block hands ``summary_rows`` a C-contiguous ``(P, R)`` array:
    an F-ordered one sums in another order and moves totals by ulps."""
    from repro.profiler import breakdown

    orders = []
    real = breakdown.summary_rows

    def recording(times, rows):
        orders.append(times.flags.c_contiguous)
        return real(times, rows)

    monkeypatch.setattr(breakdown, "summary_rows", recording)
    points = grid_points(BERT_TINY, TINY_GRID) + grid_points(
        BERT_TINY, [TrainingConfig(batch_size=2, seq_len=64,
                                   activation_checkpointing=True)])
    profile_grid(points, mi100()).summaries()
    assert len(orders) == 3 and all(orders)


def test_pass_free_grid_prices_only_distinct_rows():
    """A pass-free P-point family prices its P·T lane template rows and
    its optimizer tail once, not its P·R laid-out rows, and summary rows
    never build the stacked table."""
    from repro.obs import spans

    trainings = [TrainingConfig(batch_size=batch, seq_len=seq_len)
                 for batch in (2, 4, 8) for seq_len in (32, 64, 128)]
    sections, optimizer = pretraining_sections(BERT_TINY, trainings[0])
    template = sum(len(section) for section in sections)
    with spans.get_tracer().capture() as scope:
        profile = profile_grid(grid_points(BERT_TINY, trainings), mi100())
        rows = profile.summaries()
    priced = sum(span.attrs["kernels"] for span in scope.spans
                 if span.name == "timing.kernel_times")
    laid_out = int(profile.trace.stops[0] - profile.trace.starts[0])
    assert 0 < priced <= len(trainings) * template + len(optimizer)
    assert priced < len(trainings) * laid_out
    assert len(rows) == len(trainings)
    assert "table" not in vars(profile.trace)
    assert "point_index" not in vars(profile.trace)
    assert len(profile.trace.table) == len(trainings) * laid_out
    assert "table" in vars(profile.trace)


# ---------------------------------------------------------- sweep integration
def test_grid_sweep_rows_match_run_point_summaries():
    device = mi100()
    rows = sweeps.grid_sweep(BERT_TINY, TINY_GRID[:4], device)
    for training, row in zip(TINY_GRID[:4], rows):
        _, oracle = run_point(BERT_TINY, training, device)
        assert row["label"] == training.label
        assert row["tokens"] == training.tokens_per_iteration
        for column, value in summarize(oracle).items():
            assert row[column] == value


def test_grid_sweep_isolates_failing_point_in_process():
    points = [TINY_GRID[0], _bad_point(), TINY_GRID[1]]
    rows = sweeps.grid_sweep(BERT_TINY, points, mi100())
    assert len(rows) == 3
    assert "error" in rows[1]
    assert "ValueError" in rows[1]["error"]
    assert rows[1]["batch_size"] == 2
    for survivor in (rows[0], rows[2]):
        assert "error" not in survivor
        assert survivor["total_time_s"] > 0


# ------------------------------------------------------------- CSV bug fixes
def test_flatten_expands_tuples_into_indexed_columns():
    flat = sweeps._flatten({"shape": (3, 5), "name": "x",
                            "nested": [{"a": 1}, {"a": 2}]})
    assert flat == {"shape.0": 3, "shape.1": 5, "name": "x",
                    "nested.0.a": 1, "nested.1.a": 2}


def test_rows_to_csv_renders_sequence_fields_as_columns():
    text = sweeps.rows_to_csv([{"dims": (2, 7), "label": "p"}])
    header, row = text.strip().splitlines()
    assert header.split(",") == ["dims.0", "dims.1", "label"]
    assert row.split(",") == ["2", "7", "p"]


def test_export_csv_failure_leaves_existing_file_intact(tmp_path,
                                                        monkeypatch):
    from repro.experiments.registry import REGISTRY

    class _EmptyExperiment:
        def run(self):
            return []

    monkeypatch.setitem(REGISTRY, "empty-rows", _EmptyExperiment())
    target = tmp_path / "out.csv"
    target.write_text("precious,previous\n1,2\n")
    with pytest.raises(ValueError, match="no rows"):
        sweeps.export_experiment_csv("empty-rows", str(target))
    assert target.read_text() == "precious,previous\n1,2\n"


def test_export_csv_failure_removes_the_file_it_created(tmp_path,
                                                       monkeypatch):
    from repro.experiments.registry import REGISTRY

    class _FailingExperiment:
        def run(self):
            raise RuntimeError("synthetic experiment failure")

    monkeypatch.setitem(REGISTRY, "failing", _FailingExperiment())
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="synthetic"):
        sweeps.export_experiment_csv("failing", str(target))
    assert not target.exists()


def test_export_csv_writes_rendered_rows(tmp_path, monkeypatch):
    from repro.experiments.registry import REGISTRY

    class _RowsExperiment:
        def run(self):
            return [{"label": "a", "dims": (1, 2)}]

    monkeypatch.setitem(REGISTRY, "two-rows", _RowsExperiment())
    target = tmp_path / "out.csv"
    sweeps.export_experiment_csv("two-rows", str(target))
    assert target.read_text().splitlines() == ["label,dims.0,dims.1",
                                               "a,1,2"]


# -------------------------------------------------------------------- obs
def test_profile_grid_emits_spans_and_counters():
    from repro.obs import metrics, spans

    grids = metrics.counter("grid_engine.grids", "")
    points_counter = metrics.counter("grid_engine.points", "")
    grids_before = grids.value()
    points_before = points_counter.value()
    with spans.get_tracer().capture() as scope:
        profile_grid(grid_points(BERT_TINY, TINY_GRID[:3]), mi100())
    names = [span.name for span in scope.spans]
    assert "grid.build" in names
    assert "grid.stamp" in names
    assert "grid.profile" in names
    assert grids.value() == grids_before + 1
    assert points_counter.value() == points_before + 3


def test_grid_point_trace_is_regular_trace():
    grid = build_grid_trace([GridPoint(BERT_TINY, TINY_GRID[0])])
    trace = grid.point_trace(0)
    oracle, _ = run_point(BERT_TINY, TINY_GRID[0], mi100())
    assert len(trace) == len(oracle)
