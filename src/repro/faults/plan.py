"""Deterministic fault plans: a spec string compiled to a seeded schedule.

A :class:`FaultPlan` turns a compact spec such as ::

    "cache.corrupt:0.1,worker.kill:0.2,compute.slow:50ms"

into a *reproducible* schedule of injections.  Each comma-separated rule
names a fault **site** — a string the instrumented subsystems pass to
:func:`repro.faults.sites.decide` at the moment the fault could happen —
and an argument that is either an injection probability (``0.2``), a
delay (``50ms`` / ``1.5s`` / ``200us``), or both (``0.3:50ms`` = 30% of
occurrences are delayed 50 ms).

**Determinism.**  Whether occurrence *k* of site *s* injects is a pure
function of ``(seed, s, k)``: the plan hashes the triple (SHA-256, first
8 bytes mapped to ``[0, 1)``) and compares against the rule's rate.  No
RNG state is consumed, so the schedule does not depend on what other
sites drew, on thread interleaving, or on the platform — the same seed
always produces the same schedule, and a different seed an unrelated
one.  Per-site occurrence counters are the only mutable state, guarded
by a lock so concurrent threads each consume a distinct index.

This is the mechanism behind the chaos-determinism invariant the test
suite pins: faults perturb *when* work happens (retries, recomputes,
sleeps), never *what* it computes, so completed results are
byte-identical to the fault-free run.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass

#: Duration suffixes a rule argument may carry, in seconds.
_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def site_uniform(seed: int, site: str, index: int) -> float:
    """The deterministic uniform draw for occurrence ``index`` of ``site``.

    Pure: hashing ``(seed, site, index)`` rather than consuming RNG state
    makes every draw independent of every other site and occurrence.
    """
    digest = hashlib.sha256(f"{seed}|{site}|{index}".encode()).digest()
    return struct.unpack(">Q", digest[:8])[0] / 2.0 ** 64


def parse_duration(text: str) -> float:
    """``"50ms"`` -> ``0.05``; raises ``ValueError`` on junk."""
    for unit in ("us", "ms", "s"):  # "us"/"ms" before the bare "s"
        if text.endswith(unit):
            return float(text[: -len(unit)]) * _UNITS[unit]
    raise ValueError(f"bad duration {text!r} (use e.g. 50ms, 1.5s, 200us)")


def _format_duration(delay_s: float) -> str:
    if delay_s >= 1.0:
        return f"{delay_s:g}s"
    if delay_s >= 1e-3:
        return f"{delay_s * 1e3:g}ms"
    return f"{delay_s * 1e6:g}us"


@dataclass(frozen=True)
class FaultRule:
    """One site's injection rule.

    Attributes:
        site: fault-site name (``"worker.kill"``).
        rate: probability in ``[0, 1]`` that one occurrence injects.
        delay_s: seconds an injected occurrence sleeps (0 = fail only).
    """

    site: str
    rate: float
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be non-empty")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{self.site}: rate {self.rate} not in [0, 1]")
        if self.delay_s < 0:
            raise ValueError(f"{self.site}: negative delay")

    def spec(self) -> str:
        """Canonical rule text (round-trips through :meth:`parse_rule`)."""
        if self.delay_s and self.rate == 1.0:
            return f"{self.site}:{_format_duration(self.delay_s)}"
        if self.delay_s:
            return (f"{self.site}:{self.rate:g}:"
                    f"{_format_duration(self.delay_s)}")
        return f"{self.site}:{self.rate:g}"


def parse_rule(text: str) -> FaultRule:
    """One ``site:arg[:arg]`` clause of a fault spec."""
    parts = [p.strip() for p in text.strip().split(":")]
    if len(parts) not in (2, 3) or not all(parts):
        raise ValueError(
            f"bad fault rule {text!r}; expected site:rate, site:delay or "
            "site:rate:delay (e.g. worker.kill:0.2, compute.slow:50ms)")
    site = parts[0]
    if len(parts) == 3:
        return FaultRule(site, rate=float(parts[1]),
                         delay_s=parse_duration(parts[2]))
    arg = parts[1]
    if any(arg.endswith(u) for u in _UNITS):
        return FaultRule(site, rate=1.0, delay_s=parse_duration(arg))
    return FaultRule(site, rate=float(arg))


@dataclass(frozen=True)
class FaultDecision:
    """One scheduled injection: which occurrence of which rule fired."""

    site: str
    index: int
    delay_s: float


class FaultPlan:
    """A seeded, reproducible schedule of fault injections.

    Thread-safe; the per-site occurrence counters are the only mutable
    state.  :meth:`decide` consumes one occurrence; :meth:`schedule`
    previews a site's injection pattern without consuming anything
    (property tests pin same-seed equality on it).
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...],
                 seed: int = 0):
        by_site: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in by_site:
                raise ValueError(f"duplicate fault site {rule.site!r}")
            by_site[rule.site] = rule
        self.rules = by_site
        self.seed = seed
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Compile a comma-separated spec string into a plan."""
        clauses = [c for c in (p.strip() for p in spec.split(",")) if c]
        if not clauses:
            raise ValueError("empty fault spec")
        return cls([parse_rule(c) for c in clauses], seed=seed)

    def spec(self) -> str:
        """Canonical spec text (``parse(plan.spec(), plan.seed)`` ==)."""
        return ",".join(self.rules[s].spec() for s in sorted(self.rules))

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r}, seed={self.seed})"

    # ------------------------------------------------------------- schedule
    def injects(self, site: str, index: int) -> bool:
        """Pure decision: does occurrence ``index`` of ``site`` inject?"""
        rule = self.rules.get(site)
        if rule is None or rule.rate == 0.0:
            return False
        if rule.rate >= 1.0:
            return True
        return site_uniform(self.seed, site, index) < rule.rate

    def schedule(self, site: str, occurrences: int) -> list[int]:
        """The indices in ``range(occurrences)`` that inject (stateless)."""
        return [k for k in range(occurrences) if self.injects(site, k)]

    def decide(self, site: str) -> FaultDecision | None:
        """Consume one occurrence of ``site``; the decision, or ``None``.

        Unknown sites consume nothing, so adding instrumentation to a
        subsystem never shifts the schedule of the sites a plan names.
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
        if not self.injects(site, index):
            return None
        return FaultDecision(site=site, index=index, delay_s=rule.delay_s)

    def occurrences(self) -> dict[str, int]:
        """How many occurrences each site has consumed so far."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Rewind every occurrence counter (tests replay schedules)."""
        with self._lock:
            self._counts.clear()
