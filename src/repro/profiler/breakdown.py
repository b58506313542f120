"""Hierarchical runtime breakdowns — the paper's stacked bars.

Three aggregation levels mirror Figs. 3 and 4:

* :func:`component_breakdown` — Fig. 3: Transformer vs. output vs. embedding
  vs. optimizer (FWD+BWD of a layer counted together, updates separate).
* :func:`transformer_breakdown` — Fig. 4 second bar: attention vs. FC vs.
  DR+RC+LN inside the Transformer layers.
* :func:`region_breakdown` — Fig. 4 third/fourth bars and the Fig. 8/9
  sweeps: linear GEMMs, attention BGEMMs, scale+mask+dropout+softmax,
  FC GEMMs, GeLU, DR+RC+LN — each as a fraction of *overall* iteration
  time, matching the paper's labeling.

Every slice here is expressed as an attribute filter (component/region
codes) rather than a Python predicate, so on a columnar-backed
:class:`~repro.profiler.profiler.Profile` each one is a single masked
array reduction instead of an O(n) kernel scan.  The headline row of
:func:`summarize` goes one step further: :func:`summary_rows` reduces a
whole ``(P, R)`` block of same-structure points at once, so a grid
summarizes each stamp family in one pass rather than point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import spans
from repro.ops.base import Component, Region
from repro.profiler.profiler import Profile
from repro.trace.kernel_table import KernelTable, code_of

#: Region groups of the Fig. 4 "Transformer" bar.
ATTENTION_REGIONS = (Region.ATTENTION_LINEAR, Region.ATTENTION_BGEMM,
                     Region.ATTENTION_SMDSM)
FC_REGIONS = (Region.FC_GEMM, Region.FC_GELU)


@dataclass(frozen=True)
class BreakdownEntry:
    """One slice of a stacked bar.

    Attributes:
        label: slice label.
        time_s: absolute time.
        fraction: share of the reference total (usually the iteration).
    """

    label: str
    time_s: float
    fraction: float


def _entries(named_times: list[tuple[str, float]],
             reference_total: float) -> list[BreakdownEntry]:
    if reference_total <= 0:
        raise ValueError("reference total must be positive")
    return [BreakdownEntry(label=name, time_s=t,
                           fraction=t / reference_total)
            for name, t in named_times]


def component_breakdown(profile: Profile) -> list[BreakdownEntry]:
    """Fig. 3: iteration time by top-level component."""
    total = profile.total_time
    named = [(component.value,
              profile.time_of(component=component))
             for component in (Component.TRANSFORMER, Component.OUTPUT,
                               Component.EMBEDDING, Component.OPTIMIZER,
                               Component.COMMUNICATION)]
    named = [(name, t) for name, t in named if t > 0]
    return _entries(named, total)


def transformer_breakdown(profile: Profile) -> list[BreakdownEntry]:
    """Fig. 4 "Transformer" bar: attention / FC / DR+RC+LN slices.

    Fractions are of the whole iteration (the paper's labels show
    contribution to overall training time).
    """
    total = profile.total_time
    named = [
        ("attention", profile.time_of(component=Component.TRANSFORMER,
                                      region=ATTENTION_REGIONS)),
        ("fc", profile.time_of(component=Component.TRANSFORMER,
                               region=FC_REGIONS)),
        ("dr_rc_ln", profile.time_of(component=Component.TRANSFORMER,
                                     region=Region.DR_RC_LN)),
    ]
    return _entries(named, total)


#: Region display order of the Fig. 4/8/9 bars.
REGION_ORDER = (
    Region.ATTENTION_LINEAR,
    Region.ATTENTION_BGEMM,
    Region.ATTENTION_SMDSM,
    Region.FC_GEMM,
    Region.FC_GELU,
    Region.DR_RC_LN,
)


def region_breakdown(profile: Profile) -> dict[Region, BreakdownEntry]:
    """Fine-grained Transformer-region shares of overall iteration time."""
    total = profile.total_time
    result = {}
    for region in REGION_ORDER:
        time_s = profile.time_of(component=Component.TRANSFORMER,
                                 region=region)
        result[region] = BreakdownEntry(label=region.value, time_s=time_s,
                                        fraction=time_s / total)
    return result


def gemm_fraction(profile: Profile) -> float:
    """Share of iteration time in (batched) GEMM kernels (Sec. 3.2.2)."""
    total = profile.total_time
    return profile.gemm_time() / total if total else 0.0


def optimizer_fraction(profile: Profile) -> float:
    """Share of iteration time in the optimizer update (Takeaways 1/2)."""
    total = profile.total_time
    time_s = profile.time_of(component=Component.OPTIMIZER)
    return time_s / total if total else 0.0


def memory_bound_fraction(profile: Profile) -> float:
    """Share of iteration time in non-GEMM (memory-bound) kernels
    (Takeaways 8/9)."""
    total = profile.total_time
    return profile.non_gemm_time() / total if total else 0.0


#: The keys of a :func:`summarize` row, in order, and the components
#: whose shares open it (GEMM and non-GEMM shares follow).
SUMMARY_KEYS = ("total_time_s", "transformer", "output", "embedding",
                "optimizer", "gemm", "non_gemm")
_SUMMARY_COMPONENTS = tuple(code_of(component) for component in (
    Component.TRANSFORMER, Component.OUTPUT, Component.EMBEDDING,
    Component.OPTIMIZER))


def summary_rows(times: np.ndarray,
                 rows: KernelTable) -> list[dict[str, float]]:
    """:func:`summarize` rows of a block of points that share one row
    structure.

    ``times`` is ``(P, R)``, one point per row; ``rows`` is the
    ``R``-row table of any one of them (the points differ only in sizes,
    so they share its component and op-class columns).  Each masked sum
    gathers its columns into a C-contiguous array first: every point then
    sums the same compacted values, in the same pairwise order, as
    :meth:`~repro.profiler.profiler.Profile.time_of` on its own profile,
    so the rows are bit-identical to the point-by-point ones (a strided
    ``times[:, mask].sum(axis=1)`` is not).
    """
    is_gemm = rows.is_gemm
    masks = [rows.component == code for code in _SUMMARY_COMPONENTS]
    masks += [is_gemm, ~is_gemm]
    totals = times.sum(axis=1)
    parts = np.stack([
        np.ascontiguousarray(times.compress(mask, axis=1)).sum(axis=1)
        for mask in masks])
    shares = np.divide(parts, totals, out=np.zeros_like(parts),
                       where=totals != 0)
    return [dict(zip(SUMMARY_KEYS, values))
            for values in zip(totals.tolist(), *shares.tolist())]


def summarize(profile: Profile) -> dict[str, float]:
    """Headline fractions used across experiments and tests: the
    :func:`summary_rows` row of a block of one."""
    with spans.span("breakdown.summarize", kernels=len(profile)):
        return summary_rows(profile.times[None, :], profile.table)[0]
