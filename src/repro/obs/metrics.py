"""Unified metrics registry: labeled counters, gauges and histograms.

Instrumented subsystems (the result cache, the GEMM-time memo in
:mod:`repro.hw.timing`, ``run_point`` and the grid engine, the experiment
executor) report into process-wide metrics, and the run manifest stores a
snapshot so ``repro stats`` can render hit rates after the fact.  The
manifest's per-experiment ``cache_hits``/``cache_misses``/``kernels``/
``points`` columns are read from the ``run_point.*`` counters of each
experiment's snapshot diff: a ``run_point`` call always counts as a
miss (computed), and hits come only from cached grid summaries.

Model (a deliberately small subset of the Prometheus vocabulary):

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-written values (``set``);
* :class:`Histogram` — ``observe``\\ d distributions summarized as
  count/sum/min/max plus ``p50``/``p90``/``p99`` quantiles estimated
  from a bounded reservoir sample.

Each metric holds one value *per label set*: ``counter.inc(result="hit")``
and ``counter.inc(result="miss")`` are independent series of the same
metric.  Labels are serialized in sorted ``k=v,...`` form, so snapshots
are JSON-stable.  All operations are thread-safe (one registry lock), and
:meth:`MetricsRegistry.snapshot` / :func:`diff_snapshots` give the
executor cheap per-experiment deltas even though the registry itself is
process-global and monotonic.
"""

from __future__ import annotations

import random
import threading
import zlib

#: Snapshot key for the unlabeled series of a metric.
_NO_LABELS = ""


def _label_key(labels: dict[str, object]) -> str:
    """Serialize a label set to its stable snapshot key."""
    if not labels:
        return _NO_LABELS
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Metric:
    """Shared plumbing: a named family of label-keyed series."""

    kind = "metric"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[str, object] = {}

    def snapshot(self) -> dict[str, object]:
        """Label key -> JSON-able value (taken under the registry lock).

        Label keys come out sorted, so snapshots (and everything rendered
        from them — ``repro stats``, ``/stats``, ``/metrics``) are stable
        for diffing and golden tests whatever the observation order was.
        """
        with self._lock:
            return {key: self._export(self._series[key])
                    for key in sorted(self._series)}

    @staticmethod
    def _export(value):
        return value


class Counter(_Metric):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A point-in-time value, optionally labeled."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)


#: Per-series reservoir size: percentiles are exact up to this many
#: observations and an unbiased random sample (Vitter's Algorithm R)
#: beyond it.  512 floats per series keeps snapshots small.
RESERVOIR_SIZE = 512

#: The quantiles every histogram summary reports.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sample."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class Histogram(_Metric):
    """An observed distribution: count/sum/min/max plus quantiles.

    Quantiles come from a bounded reservoir per label set
    (:data:`RESERVOIR_SIZE` values, reservoir-sampled once full), so a
    series never grows with traffic yet ``p50``/``p90``/``p99`` stay
    exact for small series and statistically sound for large ones.

    Each series seeds its own :class:`random.Random` from the metric
    name + label key, so reservoir contents — and therefore quantile
    estimates past the reservoir size — are a pure function of the
    observation sequence.  Tests can assert quantiles exactly, and a
    re-run of the same workload reports the same percentiles; the old
    module-global ``random`` made both depend on everything else the
    process had sampled.
    """

    kind = "histogram"

    def _seed(self, key: str) -> int:
        return zlib.crc32(f"{self.name}|{key}".encode())

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            stats = self._series.get(key)
            if stats is None:
                self._series[key] = {"count": 1, "sum": value,
                                     "min": value, "max": value,
                                     "sample": [value],
                                     "rng": random.Random(self._seed(key))}
            else:
                stats["count"] += 1
                stats["sum"] += value
                stats["min"] = min(stats["min"], value)
                stats["max"] = max(stats["max"], value)
                sample = stats["sample"]
                if len(sample) < RESERVOIR_SIZE:
                    sample.append(value)
                else:  # Algorithm R: keep each value with p = size/count
                    slot = stats["rng"].randrange(stats["count"])
                    if slot < RESERVOIR_SIZE:
                        sample[slot] = value

    def stats(self, **labels) -> dict[str, float] | None:
        with self._lock:
            stats = self._series.get(_label_key(labels))
            return self._export(stats) if stats is not None else None

    @staticmethod
    def _export(value):
        out = {k: v for k, v in value.items()
               if k not in ("sample", "rng")}
        ordered = sorted(value["sample"])
        for name, q in QUANTILES:
            out[name] = _quantile(ordered, q)
        return out


class MetricsRegistry:
    """A process-wide family of named metrics.

    Re-requesting a name returns the existing metric; requesting it as a
    different kind raises, so two subsystems cannot silently fight over
    one name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get(self, kind: type[_Metric], name: str, help_text: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, help_text, self._lock)
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, not {kind.kind}")
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get(Histogram, name, help_text)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able state of every metric: ``{name: {kind, series}}``.

        Metric names (and, per metric, label keys) come out sorted so
        every rendering downstream is byte-stable across runs.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {metric.name: {"kind": metric.kind,
                              "series": metric.snapshot()}
                for metric in metrics}

    def help_texts(self) -> dict[str, str]:
        """Registered help strings by metric name (Prometheus HELP lines)."""
        with self._lock:
            return {name: self._metrics[name].help
                    for name in sorted(self._metrics)
                    if self._metrics[name].help}

    def clear(self) -> None:
        """Drop every metric (tests)."""
        with self._lock:
            self._metrics.clear()


def diff_snapshots(before: dict[str, dict],
                   after: dict[str, dict]) -> dict[str, dict]:
    """What happened between two snapshots of the same registry.

    Counters and histogram count/sum diff; histogram min/max/quantiles
    and gauges take the ``after`` value (quantiles describe the whole
    series — they cannot be subtracted).  Metrics/series absent from
    ``before`` are treated as zero; series whose delta is zero are
    dropped, so an experiment's dict only names what it actually touched.
    """
    out: dict[str, dict] = {}
    for name, entry in after.items():
        kind = entry["kind"]
        old_series = before.get(name, {}).get("series", {})
        series: dict[str, object] = {}
        for key, value in entry["series"].items():
            old = old_series.get(key)
            if kind == "counter":
                delta = value - (old or 0)
                if delta:
                    series[key] = delta
            elif kind == "gauge":
                if old is None or value != old:
                    series[key] = value
            else:  # histogram
                old = old or {"count": 0, "sum": 0.0}
                if value["count"] - old["count"]:
                    delta = dict(value)
                    delta["count"] = value["count"] - old["count"]
                    delta["sum"] = value["sum"] - old["sum"]
                    series[key] = delta
        if series:
            out[name] = {"kind": kind, "series": series}
    return out


def merge_snapshots(snapshots: "list[dict[str, dict]]") -> dict[str, dict]:
    """Merge per-experiment metric deltas into one run-level snapshot.

    Counters and histogram count/sum add across snapshots; gauges keep the
    last write; histogram min/max widen.  Histogram quantiles cannot be
    merged exactly, so the merged series keeps the quantiles of its
    largest contributor (count-weighted approximation).
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            into = merged.setdefault(name, {"kind": entry["kind"],
                                            "series": {}})
            for key, value in entry["series"].items():
                old = into["series"].get(key)
                if entry["kind"] == "counter":
                    into["series"][key] = (old or 0) + value
                elif entry["kind"] == "gauge":
                    into["series"][key] = value
                elif old is None:
                    into["series"][key] = dict(value)
                else:
                    if value["count"] > old["count"]:
                        for name, _ in QUANTILES:
                            if name in value:
                                old[name] = value[name]
                    old["count"] += value["count"]
                    old["sum"] += value["sum"]
                    old["min"] = min(old["min"], value["min"])
                    old["max"] = max(old["max"], value["max"])
    return merged


def hit_rates(snapshot: dict[str, dict]) -> dict[str, float]:
    """Derived ``<metric>.hit_rate`` summaries from result-labeled counters.

    Any counter with ``result=hit`` / ``result=miss`` series (the result
    cache, the ``run_point`` resolutions, the iteration-trace and
    GEMM-time memos) yields a rate; metrics without traffic are omitted.
    """
    rates: dict[str, float] = {}
    for name, entry in snapshot.items():
        if entry["kind"] != "counter":
            continue
        series = entry["series"]
        hits = sum(v for k, v in series.items() if "result=hit" in k)
        misses = sum(v for k, v in series.items() if "result=miss" in k)
        if hits + misses:
            rates[f"{name}.hit_rate"] = round(hits / (hits + misses), 6)
    return rates


# The process-wide registry every instrumented module reports into.
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def counter(name: str, help_text: str = "") -> Counter:
    """Shorthand for ``get_registry().counter(...)``."""
    return _registry.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Shorthand for ``get_registry().gauge(...)``."""
    return _registry.gauge(name, help_text)


def histogram(name: str, help_text: str = "") -> Histogram:
    """Shorthand for ``get_registry().histogram(...)``."""
    return _registry.histogram(name, help_text)
