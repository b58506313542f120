"""Golden equivalence: columnar engine vs. the reference implementations.

The layer-templated trace build, the batched GEMM/bandwidth timing of
``kernel_times`` and the masked-reduction aggregation of ``Profile`` are
optimizations over the seed's per-layer walk + scalar loop — they must not
change a single number.  For every operating point the registry
experiments exercise, this suite requires:

* identical kernel sequences (count, order, and full record equality);
* bit-identical per-kernel times — the vectorized models apply the same
  float64 operations in the same order as the scalar ones, so ``==``, not
  ``approx``;
* matching totals and breakdown fractions (``rel=1e-12``: ``np.sum`` is
  pairwise while the reference uses sequential Python ``sum``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (BERT_BASE, BERT_LARGE, BERT_TINY, FIG3_POINTS,
                          Precision, training_point)
from repro.hw.device import a100_like, mi100, v100_like
from repro.hw.timing import kernel_time, kernel_times
from repro.profiler.breakdown import region_breakdown, summarize
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.reference import (reference_finetuning_trace,
                                   reference_inference_trace,
                                   reference_iteration_trace,
                                   reference_profile, reference_summarize)
from repro.trace.variants import build_finetuning_trace, build_inference_trace

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

DEVICES = {"mi100": mi100, "v100": v100_like, "a100": a100_like}


def _assert_same_kernels(columnar, reference):
    assert len(columnar) == len(reference)
    assert columnar.kernels == reference.kernels


def _assert_same_profiles(fast, slow):
    times_fast = fast.times
    times_slow = np.array([r.time_s for r in slow.records])
    assert len(times_fast) == len(times_slow)
    # Bit-identical: same float64 operations in the same order.
    mismatched = (times_fast != times_slow).nonzero()[0]
    assert len(mismatched) == 0, (
        f"{len(mismatched)} kernel times differ; first at row "
        f"{mismatched[0]}: {times_fast[mismatched[0]]!r} vs "
        f"{times_slow[mismatched[0]]!r} "
        f"({slow.records[mismatched[0]].kernel.name})")

    assert fast.total_time == pytest.approx(slow.total_time, rel=1e-12)
    fast_summary = summarize(fast)
    slow_summary = reference_summarize(slow)
    assert fast_summary.keys() == slow_summary.keys()
    for key in fast_summary:
        assert fast_summary[key] == pytest.approx(slow_summary[key],
                                                  rel=1e-12), key


@pytest.mark.parametrize("name,model,training",
                         PRETRAIN_POINTS, ids=[p[0] for p in PRETRAIN_POINTS])
def test_pretraining_point_equivalence(name, model, training):
    columnar = build_iteration_trace(model, training)
    reference = reference_iteration_trace(model, training)
    _assert_same_kernels(columnar, reference)

    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          reference_profile(reference, device))


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_devices_equivalence(device_name):
    """The batched timing path matches on every device model."""
    model, training = BERT_TINY, training_point(2, 4, Precision.MIXED)
    trace = build_iteration_trace(model, training)
    device = DEVICES[device_name]()
    _assert_same_profiles(profile_trace(trace, device),
                          reference_profile(trace, device))


def test_inference_equivalence():
    model, training = BERT_BASE, training_point(1, 8, Precision.MIXED)
    columnar = build_inference_trace(model, training)
    reference = reference_inference_trace(model, training)
    _assert_same_kernels(columnar, reference)
    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          reference_profile(reference, device))


def test_finetuning_equivalence():
    model, training = BERT_BASE, training_point(1, 8, Precision.FP32)
    columnar = build_finetuning_trace(model, training)
    reference = reference_finetuning_trace(model, training)
    _assert_same_kernels(columnar, reference)
    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          reference_profile(reference, device))


def test_region_breakdown_equivalence():
    """Region fractions of the batched and scalar-timed profiles match."""
    trace = build_iteration_trace(BERT_TINY,
                                  training_point(1, 32, Precision.FP32))
    device = mi100()
    fast = profile_trace(trace, device)
    slow = reference_profile(trace, device)
    fast_regions = region_breakdown(fast)
    slow_regions = region_breakdown(slow)
    assert fast_regions.keys() == slow_regions.keys()
    for region, entry in fast_regions.items():
        assert entry.fraction == pytest.approx(
            slow_regions[region].fraction, rel=1e-12), region


def test_kernel_times_matches_scalar_rowwise():
    """kernel_times == [kernel_time(k) for k] including fused-GEMM rows."""
    from repro.trace import build_pipeline

    trace = build_iteration_trace(BERT_TINY,
                                  training_point(1, 4, Precision.FP32))
    # fused_attention produces fused-GEMM records.
    fused = build_pipeline("fused_attention").run(trace)
    device = mi100()
    batched = kernel_times(fused, device)
    scalar = np.array([kernel_time(k, device) for k in fused.kernels])
    assert (batched == scalar).all()


def test_mutated_trace_still_equivalent():
    """A trace rebuilt from an edited kernel list (``Trace.replaced``)
    profiles identically through both engines."""
    training = training_point(1, 4, Precision.FP32)
    trace = build_iteration_trace(BERT_TINY, training)
    device = mi100()
    half = trace.kernels[:len(trace.kernels) // 2]
    truncated = trace.replaced(half)
    fast = profile_trace(truncated, device)
    slow = reference_profile(truncated, device)
    _assert_same_profiles(fast, slow)


def test_pickle_roundtrip_preserves_equivalence():
    """The columnar pickle form (runner cache payload) loses nothing."""
    import pickle

    training = training_point(2, 4, Precision.FP32)
    trace = build_iteration_trace(BERT_TINY, training)
    device = mi100()
    profile = profile_trace(trace, device)

    trace2 = pickle.loads(pickle.dumps(trace))
    profile2 = pickle.loads(pickle.dumps(profile))
    assert trace2.kernels == trace.kernels
    assert (profile2.times == profile.times).all()
    assert profile2.records == profile.records
