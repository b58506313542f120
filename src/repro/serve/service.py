"""The profiling service: engine facade + canonical response payloads.

One :class:`ProfilingService` wraps the whole existing pipeline — the
operating-point registry, :func:`~repro.experiments.common.run_point`,
the batched grid engine and the Chrome-trace exporter — behind a handful
of *synchronous* compute methods that the async server dispatches onto
its worker pool.  Two properties matter:

* **Content-addressed keys.**  Every cacheable response is keyed by a
  :class:`~repro.runner.cache.ResultCache` address (model + training +
  device fingerprint + the digest of the whole package source): a point
  route by :meth:`~repro.runner.cache.ResultCache.key`, a grid by
  :meth:`~repro.runner.cache.ResultCache.grid_key`, the same address its
  disk entry has.  The hot cache and the request coalescer agree on what
  "identical query" means, and any code change rotates every layer at
  once.

* **Canonical rendering.**  Every response body is the ``indent=1``
  JSON of its document plus a newline, rendered exactly once and cached
  as bytes.  :func:`render_json` renders the ``/profile`` and ``/grid``
  payloads; a ``/perfetto`` trace is written straight from the profile's
  table columns by :func:`repro.obs.timeline_export.render_profile_trace`
  (``json.dumps(indent=1)`` is its test oracle), the same bytes
  ``repro export --format perfetto`` writes (the golden equivalence test
  pins this).
"""

from __future__ import annotations

import json

from repro.config import BertConfig, TrainingConfig
from repro.experiments.common import default_device, run_point
from repro.experiments.points import POINT_REGISTRY
from repro.faults import sites as fault_sites
from repro.obs import spans
from repro.hw.device import DeviceModel
from repro.profiler.breakdown import (component_breakdown, region_breakdown,
                                      summarize, transformer_breakdown)
from repro.runner.cache import get_cache

#: Upper bound on points per ``POST /grid`` — a single request must not
#: stamp an unbounded KernelTable.
MAX_GRID_POINTS = 4096


def render_json(payload: dict) -> bytes:
    """Canonical response rendering, shared with the golden tests.

    ``indent=1`` plus a trailing newline: the layout
    :func:`~repro.obs.timeline_export.render_profile_trace` writes from
    columns, so a parsed ``/perfetto`` body renders back to itself here.
    """
    return (json.dumps(payload, indent=1) + "\n").encode()


def _entries_payload(entries) -> list[dict]:
    return [{"label": entry.label, "time_s": entry.time_s,
             "fraction": entry.fraction} for entry in entries]


class ProfilingService:
    """Synchronous compute core served by :class:`~repro.serve.app.App`.

    Holds the frozen device model and the finished key of each point
    route.  Every other memo lives in the layers around it (hot cache,
    request coalescer, the disk cache of grid summaries, the shared
    ``iteration_trace`` memo).
    """

    def __init__(self, device: DeviceModel | None = None):
        self.device = device if device is not None else default_device()
        #: ``(route, point) -> key``.  The registry, the device and the
        #: code fingerprint are fixed for the life of the service, so each
        #: key is hashed once; only registered points enter.
        self._point_keys: dict[tuple[str, str], str] = {}

    # ------------------------------------------------------------------ keys
    def point_key(self, route: str, point: str) -> str:
        """Hot-cache/coalescing key of one point route: the runner's
        content address prefixed with the route name.

        A ``/profile`` body names its point, and several registry ids
        alias one operating point, so its key carries the id as well; a
        ``/perfetto`` body does not, so aliases share one entry.

        Raises:
            KeyError: ``point`` is not in the registry.
        """
        key = self._point_keys.get((route, point))
        if key is None:
            model, training = POINT_REGISTRY[point]
            address = get_cache().key(model, training, self.device)
            key = (f"{route}:{point}:{address}" if route == "profile"
                   else f"{route}:{address}")
            self._point_keys[(route, point)] = key
        return key

    def grid_address(self, model: BertConfig,
                     trainings: list[TrainingConfig]) -> str:
        """Disk-cache address of one grid spec: hashed once per request,
        then handed to :meth:`grid_payload`."""
        return get_cache().grid_key(
            ((model, training) for training in trainings), self.device)

    # ------------------------------------------------------------- computes
    def points_payload(self) -> dict:
        """``GET /points``: the addressable operating-point registry."""
        points = []
        for point in sorted(POINT_REGISTRY):
            model, training = POINT_REGISTRY[point]
            points.append({
                "id": point,
                "model": model.name,
                "label": training.label,
                "batch_size": training.batch_size,
                "seq_len": training.seq_len,
                "precision": training.precision.value,
                "tokens": training.tokens_per_iteration,
            })
        return {"points": points, "count": len(points)}

    def profile_payload(self, point: str) -> dict:
        """``GET /profile/<point>``: summary + breakdowns of one point.

        Every number comes verbatim from the same ``run_point`` /
        ``summarize`` / breakdown calls the experiments make — the
        golden equivalence test compares this payload bit-for-bit
        against those direct calls.
        """
        model, training = POINT_REGISTRY[point]
        with spans.span("profile.run", category="serve", point=point):
            fault_sites.inject("compute.slow")
            fault_sites.inject_failure("compute.fail")
            _, profile = run_point(model, training, self.device)
            payload = self._profile_payload_of(point, model, training,
                                               profile)
        return payload

    def _profile_payload_of(self, point, model, training, profile) -> dict:
        return {
            "point": point,
            "model": {
                "name": model.name,
                "num_layers": model.num_layers,
                "d_model": model.d_model,
                "num_heads": model.num_heads,
                "d_ff": model.d_ff,
                "parameters": model.total_parameters(),
            },
            "training": {
                "label": training.label,
                "batch_size": training.batch_size,
                "seq_len": training.seq_len,
                "precision": training.precision.value,
                "optimizer": training.optimizer,
                "tokens": training.tokens_per_iteration,
            },
            "device": self.device.name,
            "kernels": len(profile),
            "summary": summarize(profile),
            "components": _entries_payload(component_breakdown(profile)),
            "transformer": _entries_payload(transformer_breakdown(profile)),
            "regions": _entries_payload(region_breakdown(profile).values()),
        }

    def perfetto_payload(self, point: str) -> bytes:
        """``GET /perfetto/<point>``: the rendered Chrome Trace body.

        Identical call shape to ``repro export --format perfetto`` (same
        label, no pass pipeline), so the bytes match the file.
        """
        from repro.obs.timeline_export import render_profile_trace

        model, training = POINT_REGISTRY[point]
        with spans.span("perfetto.run", category="serve", point=point):
            fault_sites.inject("compute.slow")
            fault_sites.inject_failure("compute.fail")
            _, profile = run_point(model, training, self.device)
            return render_profile_trace(
                profile, label=f"{model.name} {training.label}")

    def parse_grid_spec(self, spec: dict
                        ) -> tuple[BertConfig, list[TrainingConfig]]:
        """Validate a ``POST /grid`` body; raises ``ValueError`` on junk."""
        from repro.experiments.sweeps import (GRID_MODELS, cross_product,
                                              parse_grid_axes)

        if not isinstance(spec, dict):
            raise ValueError("grid spec must be a JSON object")
        unknown = set(spec) - {"model", "batch_sizes", "seq_lens",
                               "precisions"}
        if unknown:
            raise ValueError(f"unknown grid spec fields: "
                             f"{', '.join(sorted(unknown))}")
        model_name = spec.get("model", "bert-large")
        if not isinstance(model_name, str) or model_name not in GRID_MODELS:
            raise ValueError(f"unknown model {model_name!r}; valid: "
                             f"{', '.join(sorted(GRID_MODELS))}")
        batches, lengths, precisions = parse_grid_axes(
            spec.get("batch_sizes", (32,)), spec.get("seq_lens", (128,)),
            spec.get("precisions", ("fp32",)))
        total = len(batches) * len(lengths) * len(precisions)
        if total > MAX_GRID_POINTS:
            raise ValueError(f"grid of {total} points exceeds the "
                             f"{MAX_GRID_POINTS}-point request limit")
        return (GRID_MODELS[model_name],
                cross_product(batches, lengths, precisions))

    def grid_payload(self, model: BertConfig,
                     trainings: list[TrainingConfig], address: str) -> dict:
        """``POST /grid``: a sweep priced through the batched grid engine.

        ``address`` is the spec's :meth:`grid_address`, so the grid is
        not hashed a second time.
        """
        from repro.experiments.sweeps import grid_sweep

        with spans.span("grid.run", category="serve", model=model.name,
                        points=len(trainings)):
            fault_sites.inject("compute.slow")
            fault_sites.inject_failure("compute.fail")
            rows = grid_sweep(model, trainings, self.device, key=address)
        return {
            "model": model.name,
            "device": self.device.name,
            "points": len(rows),
            "failed": sum(1 for row in rows if "error" in row),
            "rows": rows,
        }
