"""Trace and Profile are frozen views over one KernelTable.

A profile's aggregates are always array reductions over its columns, so a
reported number cannot depend on what earlier code happened to read: the
record tuple is built on first read and never consulted by ``total_time``,
``gemm_time``, ``non_gemm_time`` or ``time_of``.  Both object views are
tuples, so mutating them raises instead of desynchronizing the table.
The same holds one level down: a table's GEMM pool is a frozen dims
array, and ``table.gemms`` is a tuple view built from it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, training_point
from repro.hw.device import mi100
from repro.ops.base import Phase
from repro.ops.gemm import GEMM_DIMS
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import build_iteration_trace
from repro.trace.kernel_table import KernelTable

POINTS = [(phase, batch, precision)
          for phase, batch in ((1, 32), (2, 4))
          for precision in (Precision.FP32, Precision.MIXED)]


def _aggregates(profile) -> tuple[float, ...]:
    return (profile.total_time, profile.gemm_time(),
            profile.non_gemm_time(), profile.time_of(phase=Phase.BACKWARD))


@pytest.mark.parametrize("phase,batch,precision", POINTS)
def test_aggregates_do_not_depend_on_reading_records(phase, batch,
                                                     precision):
    trace = build_iteration_trace(BERT_LARGE,
                                  training_point(phase, batch, precision))
    untouched = profile_trace(trace, mi100())
    read_first = profile_trace(trace, mi100())
    assert len(read_first.records) == len(trace)
    assert _aggregates(read_first) == _aggregates(untouched)


def test_object_views_are_read_only_tuples():
    trace = build_iteration_trace(
        BERT_TINY, training_point(1, 2, Precision.FP32))
    profile = profile_trace(trace, mi100())
    assert isinstance(trace.kernels, tuple)
    assert isinstance(profile.records, tuple)
    kernel = trace.kernels[0]
    with pytest.raises(TypeError):
        trace.kernels[0] = dataclasses.replace(kernel, flops=kernel.flops + 1)
    with pytest.raises(AttributeError):
        profile.records.append(profile.records[0])
    assert trace.kernels[0] == kernel
    assert len(profile.records) == len(trace)


def _table(batch: int):
    return build_iteration_trace(
        BERT_TINY, training_point(1, batch, Precision.FP32)).table


def test_gemm_pool_is_a_frozen_dims_array_with_a_shape_view():
    table = _table(2)
    assert not table.gemm_dims.flags.writeable
    assert table.gemm_dims.shape == (len(table.gemms), len(GEMM_DIMS))
    assert isinstance(table.gemms, tuple)
    assert table.gemms is table.gemms  # built once
    for row in np.flatnonzero(table.gemm_code >= 0):
        shape = table.kernel(int(row)).gemm
        assert shape.dims == tuple(table.gemm_dims[table.gemm_code[row]])
        assert table.labels("gemm_code")[row] == shape.label


def test_concat_merges_gemm_pools_in_first_seen_order():
    small, large = _table(2), _table(4)
    merged = KernelTable.concat([small, large, small])
    assert merged.gemms == tuple(dict.fromkeys(small.gemms + large.gemms))
    assert [k.gemm for k in merged.to_kernels()] == [
        k.gemm for part in (small, large, small) for k in part.to_kernels()]
