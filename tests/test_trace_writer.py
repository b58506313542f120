"""The column writer of profile traces against ``json.dumps`` as oracle.

:func:`~repro.obs.timeline_export.render_profile_trace` writes the
``indent=1`` bytes of a trace-event document without building it.  Its
bytes must be what :func:`repro.serve.service.render_json` (``indent=1``
plus a newline) gives for the parsed document; this module is the one
place ``json.dumps(indent=1)`` still renders a profile trace.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.common import run_point
from repro.experiments.points import POINT_REGISTRY
from repro.obs.timeline_export import (_float_texts, _int_texts,
                                       render_profile_trace)
from repro.profiler.profiler import Profile
from repro.serve.service import ProfilingService, render_json

TINY = "tiny.ph1-b2-fp32"

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
               1e-7, 0.1, 1.7976931348623157e308, 23.15]
EDGE_INTS = [0, -1, 2**63 - 1, -2**63, 10**30, -(10**40)]
EDGE_LABELS = ['say "hi"', "back\\slash", "ctrl\x00\x01\x1f\t\n\r\x7f",
               "café λ 中 \U0001f600", "/slash/", ""]


def _assert_canonical(body: bytes) -> dict:
    document = json.loads(body)
    assert body == render_json(document)
    return document


@pytest.mark.parametrize("point", sorted(POINT_REGISTRY))
def test_served_trace_is_canonical_json(point):
    _assert_canonical(ProfilingService().perfetto_payload(point))


def test_pass_rewritten_export_is_canonical_json(tmp_path):
    path = tmp_path / "tiny-passes.json"
    assert main(["export", "--format", "perfetto", "--passes",
                 "fuse_elementwise,fused_attention,checkpointing:1", TINY,
                 str(path)]) == 0
    document = _assert_canonical(path.read_bytes())
    args = [event["args"] for event in document["traceEvents"]
            if event["ph"] == "X"]
    assert any("fusion_group" in arg for arg in args)
    assert any("gemm_shape" in arg for arg in args)


def test_float_texts_match_json_dumps():
    assert _float_texts(np.array(EDGE_FLOATS)) \
        == [json.dumps(value) for value in EDGE_FLOATS]
    finite = [value for value in EDGE_FLOATS if math.isfinite(value)]
    assert _float_texts(np.array(finite)) \
        == [json.dumps(value) for value in finite]


def test_int_texts_match_json_dumps():
    assert _int_texts(np.array(EDGE_INTS, dtype=object)) \
        == [json.dumps(value) for value in EDGE_INTS]
    assert _int_texts(np.array(EDGE_INTS[:4], dtype=np.int64)) \
        == [json.dumps(value) for value in EDGE_INTS[:4]]


@pytest.fixture(scope="module")
def tiny_profile():
    return run_point(*POINT_REGISTRY[TINY])[1]


def test_labels_encode_as_json_dumps(tiny_profile):
    table = tiny_profile.table
    names = tuple(EDGE_LABELS[i % len(EDGE_LABELS)] + str(i)
                  for i in range(len(table.names)))
    profile = Profile(tiny_profile.device, table.with_columns(names=names),
                      tiny_profile.times)
    for label in EDGE_LABELS:
        document = _assert_canonical(render_profile_trace(profile,
                                                          label=label))
        events = document["traceEvents"]
        assert events[1]["args"]["name"] == label
        assert [event["name"] for event in events[2:]] \
            == [names[code] for code in table.name_code]


def test_edge_times_keep_the_sequential_clock(tiny_profile):
    times = np.resize(np.array(EDGE_FLOATS) / 1e6, len(tiny_profile))
    profile = Profile(tiny_profile.device, tiny_profile.table, times)
    document = _assert_canonical(render_profile_trace(profile, pid=7))
    slices = [event for event in document["traceEvents"]
              if event["ph"] == "X"]
    starts, durations, clock = [], [], 0.0
    for time_s in times.tolist():
        starts.append(clock)
        durations.append(time_s * 1e6)
        clock += time_s * 1e6
    # Compared as JSON text, so NaN slots compare equal.
    assert json.dumps([event["ts"] for event in slices]) \
        == json.dumps(starts)
    assert json.dumps([event["dur"] for event in slices]) \
        == json.dumps(durations)
    assert json.dumps(document["otherData"]["total_time_us"]) \
        == json.dumps(clock)
    assert {event["pid"] for event in document["traceEvents"]} == {7}
