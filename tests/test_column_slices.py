"""Column slices equal the per-kernel predicates they replace.

The data-parallel, ZeRO, windowed-attention, takeaway and energy code
answers its slices from the ``KernelTable`` columns instead of scanning
per-kernel objects.  Each slice here is checked against the predicate scan
it replaced, on the paper's two phases and both precisions.
"""

from __future__ import annotations

import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, training_point
from repro.distributed.passes import global_norm_rows
from repro.hw.device import mi100
from repro.hw.energy import (default_energy_spec, iteration_energy,
                             kernel_energy, trace_energy)
from repro.ops.base import Component, Phase, Region
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace

POINTS = [training_point(1, 32, Precision.FP32),
          training_point(2, 4, Precision.MIXED)]


@pytest.fixture(scope="module", params=POINTS, ids=lambda t: t.label)
def profiled(request):
    trace = build_iteration_trace(BERT_LARGE, request.param)
    return trace, profile_trace(trace, mi100())


def test_layer_backward_slices(profiled):
    _, profile = profiled
    for layer in range(BERT_LARGE.num_layers):
        column = profile.time_of(phase=Phase.BACKWARD, layer_index=layer)
        scan = profile.time_where(
            lambda k: k.phase is Phase.BACKWARD and k.layer_index == layer)
        assert column > 0
        assert column == pytest.approx(scan, rel=1e-12)


def test_embedding_backward_slice(profiled):
    _, profile = profiled
    column = profile.time_of(phase=Phase.BACKWARD,
                             component=Component.EMBEDDING)
    scan = profile.time_where(
        lambda k: k.phase is Phase.BACKWARD
        and k.component is Component.EMBEDDING)
    assert column > 0
    assert column == pytest.approx(scan, rel=1e-12)


def test_grad_norm_slice(profiled):
    trace, profile = profiled
    scan = profile.time_where(lambda k: "grad_norm" in k.name)
    assert scan > 0
    assert profile.time_of(region=Region.OPT_NORM) == pytest.approx(
        scan, rel=1e-12)
    assert float(profile.times[global_norm_rows(trace.table)].sum()) == scan


def test_dense_attention_slice(profiled):
    _, profile = profiled
    column = profile.time_of(
        component=Component.TRANSFORMER,
        region=(Region.ATTENTION_BGEMM, Region.ATTENTION_SMDSM))
    scan = profile.time_where(
        lambda k: k.component is Component.TRANSFORMER
        and k.region in (Region.ATTENTION_BGEMM, Region.ATTENTION_SMDSM))
    assert column > 0
    assert column == pytest.approx(scan, rel=1e-12)


def test_layer_index_none_does_not_filter(profiled):
    trace, profile = profiled
    table = trace.table
    assert table.mask(layer_index=None).all()
    assert profile.time_of(layer_index=None) == profile.total_time


def test_stage1_reads_column_sum_is_exact(profiled):
    trace, _ = profiled
    table = trace.table
    column = int(table.bytes_read[table.mask(component=Component.OPTIMIZER)
                                  & table.name_contains("stage1")].sum())
    scan = sum(k.bytes_read for k in trace.kernels
               if k.component is Component.OPTIMIZER and "stage1" in k.name)
    assert column == scan > 0


def test_energy_columns_match_the_per_kernel_sums(profiled):
    trace, profile = profiled
    spec = default_energy_spec()
    for nmc in (False, True):
        scan = sum(kernel_energy(k, spec, nmc=nmc) for k in trace.kernels)
        assert trace_energy(trace, spec, nmc=nmc) == pytest.approx(
            scan, rel=1e-12)
        assert trace_energy(list(trace.kernels), spec,
                            nmc=nmc) == pytest.approx(scan, rel=1e-12)
    report = iteration_energy(profile, spec)
    arithmetic = sum(k.flops * spec.flop_energy(k.dtype) * 1e-12
                     for k in trace.kernels)
    movement = sum(k.bytes_total * spec.dram_pj_per_byte * 1e-12
                   for k in trace.kernels)
    assert report.dynamic_j == pytest.approx(arithmetic + movement,
                                             rel=1e-12)
    assert report.movement_fraction == pytest.approx(
        movement / (arithmetic + movement), rel=1e-12)


@pytest.mark.parametrize("optimizer,fused", [
    ("lamb", True), ("lamb", False), ("adam", True), ("adam", False)])
def test_global_norm_rows_are_the_grad_norm_named_rows(optimizer, fused):
    trace = build_iteration_trace(BERT_TINY, training_point(
        1, 4, Precision.MIXED, optimizer=optimizer, fuse_optimizer=fused))
    named = [i for i, k in enumerate(trace.kernels) if "grad_norm" in k.name]
    region = [i for i, k in enumerate(trace.kernels)
              if k.region is Region.OPT_NORM]
    assert list(global_norm_rows(trace.table).nonzero()[0]) == named
    assert len(named) == (1 if optimizer == "lamb" else 0)
    if optimizer == "lamb" and not fused:
        # Unfused LAMB also files its per-tensor trust-ratio norms under
        # OPT_NORM; those shard with their tensors, so ZeRO matches the
        # global norm by name rather than by region.
        assert set(named) < set(region)
    else:
        assert region == named
