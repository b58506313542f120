"""Pins every byte the profile exporters produce.

The fixtures under ``tests/golden/`` are frozen: the sha256 of each
registry point's served ``/profile`` and ``/perfetto`` body (the trace
hashed as the service returns it), and the CSV and JSON exports of the
tiny point.  An exporter rewrite that keeps
them equal serves and writes the same bytes as before; a deliberate
format or timing-model change replaces the fixtures in the same commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.common import run_point
from repro.experiments.points import POINT_REGISTRY
from repro.profiler.export import to_csv, to_json
from repro.serve.service import ProfilingService, render_json

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN_DIR / "export_digests.json").read_text())
TINY = "tiny.ph1-b2-fp32"


@pytest.fixture(scope="module")
def service():
    return ProfilingService()


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def test_every_registry_point_is_pinned():
    assert sorted(DIGESTS) == sorted(POINT_REGISTRY)


@pytest.mark.parametrize("point", sorted(POINT_REGISTRY))
def test_served_bodies_match_digests(service, point):
    assert _sha256(render_json(service.profile_payload(point))) \
        == DIGESTS[point]["profile"]
    assert _sha256(service.perfetto_payload(point)) \
        == DIGESTS[point]["perfetto"]


@pytest.mark.parametrize("render, golden", [
    (to_csv, "tiny_profile.csv"),
    (to_json, "tiny_profile.json"),
])
def test_tiny_file_exports_match(service, render, golden):
    model, training = POINT_REGISTRY[TINY]
    _, profile = run_point(model, training, service.device)
    # newline="" keeps the CSV writer's \r\n line ends as written.
    with open(GOLDEN_DIR / golden, newline="") as handle:
        assert render(profile) == handle.read()
