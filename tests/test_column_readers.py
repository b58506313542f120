"""Product readers of per-kernel data read the kernel table's columns.

Per-kernel :class:`~repro.ops.base.Kernel` objects are an explicit view
for tests, examples and the reference oracle.  With
``KernelTable.kernel`` (the one place that view is built) made to raise,
every exporter, Fig. 7, the characterization API and the served Perfetto
payload must still succeed.
"""

import json

import pytest

from repro.config import BERT_TINY
from repro.core.characterize import characterize
from repro.experiments import fig7
from repro.experiments.common import run_point
from repro.experiments.points import POINT_REGISTRY
from repro.obs.timeline_export import profile_to_chrome_trace
from repro.profiler.export import to_csv, to_json
from repro.serve.service import ProfilingService
from repro.trace.bert_trace import clear_iteration_traces
from repro.trace.kernel_table import KernelTable

TINY = "tiny.ph1-b2-fp32"


@pytest.fixture
def no_kernel_objects(monkeypatch):
    def refuse(self, row):
        raise AssertionError("a product path built a Kernel object")

    # Fresh traces: a memoized one may hold a kernel tuple built earlier.
    clear_iteration_traces()
    monkeypatch.setattr(KernelTable, "kernel", refuse)
    yield
    clear_iteration_traces()


@pytest.fixture
def tiny_profile(no_kernel_objects):
    return run_point(*POINT_REGISTRY[TINY])[1]


def test_the_guard_refuses_kernel_objects(tiny_profile):
    with pytest.raises(AssertionError, match="built a Kernel object"):
        tiny_profile.records


@pytest.mark.parametrize("export", [profile_to_chrome_trace, to_csv,
                                    to_json])
def test_exports_read_columns(tiny_profile, export):
    assert export(tiny_profile)


def test_fig7_reads_columns(no_kernel_objects):
    assert len(fig7.run()) == 9


def test_characterize_reads_columns(no_kernel_objects):
    assert characterize(BERT_TINY).gemm_classes


def test_served_perfetto_reads_columns(no_kernel_objects):
    payload = json.loads(ProfilingService().perfetto_payload(TINY))
    assert payload["otherData"]["kernels"] > 0
