"""Golden equivalence: the columnar engine vs. frozen digests.

The layer-templated trace build, the batched GEMM/bandwidth timing of
``kernel_times`` and the masked-reduction aggregation of ``Profile`` are
optimizations over a per-layer walk + scalar loop — they must not change
a single number.  For every operating point the registry experiments
exercise, this suite requires:

* the kernel sequence frozen in ``tests/golden/trace_digests.json``
  (count, order, and full record equality; see
  ``tests/test_trace_digests.py``);
* the per-kernel times frozen in ``tests/golden/time_digests.json`` — a
  sha256 of the float64 column, computed once from the scalar per-kernel
  timing path, so a match is ``==``, not ``approx`` (see
  ``tests/test_time_digests.py``);
* matching totals and breakdown fractions against predicate scans of
  :meth:`Profile.fraction_where` (``rel=1e-12``: masked sums and
  predicate scans add in different orders).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BERT_TINY, Precision, training_point
from repro.ops.base import Component
from repro.profiler.breakdown import region_breakdown, summarize
from repro.profiler.profiler import profile_trace
from repro.trace import build_pipeline
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.variants import build_finetuning_trace, build_inference_trace
from tests.test_time_digests import (DEVICES, TINY_PH1_B4_FP32,
                                     TINY_PH1_B32_FP32, TINY_PH2_B4_MIXED,
                                     assert_times_frozen)
from tests.test_trace_digests import (FINETUNING, INFERENCE, PRETRAIN_POINTS,
                                      assert_frozen)

mi100 = DEVICES["mi100"]


def _predicate_summary(profile) -> dict[str, float]:
    """Headline fractions by predicate scans over the profile's records."""
    return {
        "total_time_s": sum(r.time_s for r in profile.records),
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


def _assert_masked_sums_match_scans(profile) -> None:
    masked = summarize(profile)
    scanned = _predicate_summary(profile)
    assert masked.keys() == scanned.keys()
    for key in masked:
        assert masked[key] == pytest.approx(scanned[key], rel=1e-12), key


def _assert_frozen_profile(case: str, profile) -> None:
    """Times frozen for ``case``; masked summaries equal predicate scans."""
    assert_times_frozen(case, profile.times)
    _assert_masked_sums_match_scans(profile)


@pytest.mark.parametrize("name,model,training",
                         PRETRAIN_POINTS, ids=[p[0] for p in PRETRAIN_POINTS])
def test_pretraining_point_equivalence(name, model, training):
    columnar = build_iteration_trace(model, training)
    assert_frozen(f"pretrain/{name}", columnar)
    _assert_frozen_profile(f"mi100/pretrain/{name}",
                           profile_trace(columnar, mi100()))


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_devices_equivalence(device_name):
    """The batched timing path matches on every device model."""
    trace = build_iteration_trace(*TINY_PH2_B4_MIXED)
    _assert_frozen_profile(f"{device_name}/tiny-ph2-b4-mixed",
                           profile_trace(trace, DEVICES[device_name]()))


def test_inference_equivalence():
    columnar = build_inference_trace(*INFERENCE)
    assert_frozen("inference/base-ph1-b8-mixed", columnar)
    _assert_frozen_profile("mi100/inference/base-ph1-b8-mixed",
                           profile_trace(columnar, mi100()))


def test_finetuning_equivalence():
    columnar = build_finetuning_trace(*FINETUNING)
    assert_frozen("finetuning/base-ph1-b8-fp32", columnar)
    _assert_frozen_profile("mi100/finetuning/base-ph1-b8-fp32",
                           profile_trace(columnar, mi100()))


def test_region_breakdown_equivalence():
    """Region fractions of the frozen profile match predicate scans."""
    profile = profile_trace(build_iteration_trace(*TINY_PH1_B32_FP32),
                            mi100())
    assert_times_frozen("mi100/tiny-ph1-b32-fp32", profile.times)
    for region, entry in region_breakdown(profile).items():
        scanned = profile.fraction_where(
            lambda k, r=region: (k.component is Component.TRANSFORMER
                                 and k.region is r))
        assert entry.fraction == pytest.approx(scanned, rel=1e-12), region


def test_kernel_times_matches_frozen_fused_rows():
    """Fused-GEMM rows (FLOPs beyond their anchor shape) keep their times."""
    trace = build_iteration_trace(*TINY_PH1_B4_FP32)
    fused = build_pipeline("fused_attention").run(trace)
    table = fused.table
    shape_flops = np.array([s.flops for s in table.gemms])
    gemm_rows = table.is_gemm.nonzero()[0]
    assert (table.flops[gemm_rows]
            > shape_flops[table.gemm_code[gemm_rows]]).any()
    _assert_frozen_profile("mi100/tiny-ph1-b4-fp32/fused_attention",
                           profile_trace(fused, mi100()))


def test_mutated_trace_still_equivalent():
    """A trace rebuilt from an edited kernel list prices each kept kernel
    exactly as the frozen full trace does."""
    trace = build_iteration_trace(*TINY_PH1_B4_FP32)
    device = mi100()
    full = profile_trace(trace, device)
    assert_times_frozen("mi100/tiny-ph1-b4-fp32", full.times)
    half = trace.kernels[:len(trace.kernels) // 2]
    truncated = profile_trace(
        Trace(trace.model, trace.training, KernelTable.from_kernels(half)),
        device)
    assert (truncated.times == full.times[:len(half)]).all()
    _assert_masked_sums_match_scans(truncated)


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
