"""Pins every field of the packing study's rows, repr for repr.

The rows were recorded while the study still generated and packed real
token sequences.  Any change to how the study counts sequences or sums
occupancy (a reordered float sum, a different split of a pair) moves a
repr here before it moves the rendered table's rounded percentages.
"""

import dataclasses

import pytest

from repro.experiments import packing_study

DEFAULT_ROWS = [
    ("'short pairs (32-96)'", "512", "512", "69", "0.9793081974637681",
     "0.865234375"),
    ("'medium pairs (64-192)'", "512", "512", "136", "0.9715935202205882",
     "0.734375"),
    ("'long pairs (128-384)'", "512", "512", "273", "0.9570240956959707",
     "0.466796875"),
]

HALF_ROWS = [
    ("'short pairs (32-96)'", "256", "256", "35", "0.9643973214285714",
     "0.86328125"),
    ("'medium pairs (64-192)'", "256", "256", "68", "0.970703125",
     "0.734375"),
    ("'long pairs (128-384)'", "256", "256", "139", "0.9389613309352518",
     "0.45703125"),
]


def _field_reprs(row: packing_study.PackingRow) -> tuple[str, ...]:
    fields = tuple(repr(getattr(row, f.name))
                   for f in dataclasses.fields(row))
    return fields + (repr(row.compute_saved),)


@pytest.mark.parametrize("kwargs, expected", [
    ({}, DEFAULT_ROWS),
    ({"segments": 256}, HALF_ROWS),
], ids=["default", "segments-256"])
def test_packing_rows_frozen(kwargs, expected):
    rows = packing_study.run(**kwargs)
    assert [_field_reprs(row) for row in rows] == expected
