"""Golden equivalence: the columnar engine vs. frozen digests and the
scalar timing oracle.

The layer-templated trace build, the batched GEMM/bandwidth timing of
``kernel_times`` and the masked-reduction aggregation of ``Profile`` are
optimizations over a per-layer walk + scalar loop — they must not change
a single number.  For every operating point the registry experiments
exercise, this suite requires:

* the kernel sequence frozen in ``tests/golden/trace_digests.json``
  (count, order, and full record equality; see
  ``tests/test_trace_digests.py``);
* bit-identical per-kernel times against the scalar
  :func:`repro.hw.timing.kernel_time` — the vectorized models apply the
  same float64 operations in the same order as the scalar ones, so
  ``==``, not ``approx``;
* matching totals and breakdown fractions against predicate scans of
  :meth:`Profile.fraction_where` (``rel=1e-12``: masked sums and
  predicate scans add in different orders).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BERT_TINY, Precision, training_point
from repro.hw.device import a100_like, mi100, v100_like
from repro.hw.timing import kernel_time, kernel_times
from repro.ops.base import Component
from repro.profiler.breakdown import region_breakdown, summarize
from repro.profiler.profiler import Profile, profile_trace
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.variants import build_finetuning_trace, build_inference_trace
from tests.test_trace_digests import (FINETUNING, INFERENCE, PRETRAIN_POINTS,
                                      assert_frozen)

DEVICES = {"mi100": mi100, "v100": v100_like, "a100": a100_like}


def _scalar_profile(trace, device) -> Profile:
    """``trace`` timed kernel by kernel through the scalar ``kernel_time``."""
    times = [kernel_time(k, device) for k in trace.kernels]
    return Profile(device, trace.table, np.array(times, dtype=np.float64))


def _predicate_summary(profile) -> dict[str, float]:
    """Headline fractions by predicate scans over the profile's records."""
    return {
        "total_time_s": profile.total_time,
        "transformer": profile.fraction_where(
            lambda k: k.component is Component.TRANSFORMER),
        "output": profile.fraction_where(
            lambda k: k.component is Component.OUTPUT),
        "embedding": profile.fraction_where(
            lambda k: k.component is Component.EMBEDDING),
        "optimizer": profile.fraction_where(
            lambda k: k.component is Component.OPTIMIZER),
        "gemm": profile.fraction_where(lambda k: k.op_class.is_gemm),
        "non_gemm": profile.fraction_where(
            lambda k: not k.op_class.is_gemm),
    }


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
    slow_summary = _predicate_summary(slow)
    assert fast_summary.keys() == slow_summary.keys()
    for key in fast_summary:
        assert fast_summary[key] == pytest.approx(slow_summary[key],
                                                  rel=1e-12), key


@pytest.mark.parametrize("name,model,training",
                         PRETRAIN_POINTS, ids=[p[0] for p in PRETRAIN_POINTS])
def test_pretraining_point_equivalence(name, model, training):
    columnar = build_iteration_trace(model, training)
    assert_frozen(f"pretrain/{name}", columnar)

    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          _scalar_profile(columnar, device))


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_devices_equivalence(device_name):
    """The batched timing path matches on every device model."""
    model, training = BERT_TINY, training_point(2, 4, Precision.MIXED)
    trace = build_iteration_trace(model, training)
    device = DEVICES[device_name]()
    _assert_same_profiles(profile_trace(trace, device),
                          _scalar_profile(trace, device))


def test_inference_equivalence():
    columnar = build_inference_trace(*INFERENCE)
    assert_frozen("inference/base-ph1-b8-mixed", columnar)
    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          _scalar_profile(columnar, device))


def test_finetuning_equivalence():
    columnar = build_finetuning_trace(*FINETUNING)
    assert_frozen("finetuning/base-ph1-b8-fp32", columnar)
    device = mi100()
    _assert_same_profiles(profile_trace(columnar, device),
                          _scalar_profile(columnar, device))


def test_region_breakdown_equivalence():
    """Region fractions of the batched and scalar-timed profiles match."""
    trace = build_iteration_trace(BERT_TINY,
                                  training_point(1, 32, Precision.FP32))
    device = mi100()
    fast = profile_trace(trace, device)
    slow = _scalar_profile(trace, device)
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
    slow = _scalar_profile(truncated, device)
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
