"""The async application: routing, worker pool, backpressure, telemetry.

Request lifecycle for the cacheable routes (``/profile``, ``/perfetto``,
``/grid``):

1. resolve + validate on the event loop (unknown point -> 404, bad grid
   spec -> 400; nothing invalid ever reaches a worker);
2. **hot cache** — a hit returns pre-rendered bytes immediately;
3. **coalesce** — if an identical computation is already in flight the
   request attaches to it (``serve.coalesced``) and consumes no worker;
4. **shed** — a request that would *start* a computation while
   ``queue_limit`` computations are already pending is refused with
   ``503`` + ``Retry-After`` (``serve.shed``).  Shedding leaders instead
   of followers keeps an identical-query storm cheap no matter how wide;
5. **compute** — the leader runs the service's sync compute on the
   bounded ``ThreadPoolExecutor`` (``serve.computations``), which
   renders the body once, and populates the hot cache.

Every request increments ``serve.requests{route=,status=}`` and observes
``serve.request_seconds{route=}`` (whose ``p50``/``p99`` feed ``/stats``
and the load harness).  Each request also opens a ``serve.request`` span
under a fresh ``trace_id``; the open span stack is *carried into the
worker pool* via ``contextvars.copy_context()``, so the engine spans the
compute opens (``profile.run → trace.build → ... → hw.*``) parent to the
leader's request span and the whole request is one connected tree.  The
:class:`~repro.obs.flight.FlightRecorder` (installed as a tracer sink)
groups that tree per trace id into a bounded ring served by the
``/debug/requests`` and ``/debug/trace/<trace_id>`` endpoints, and
``GET /metrics`` exposes the registry in Prometheus text format.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.faults import sites as fault_sites
from repro.obs import metrics, prometheus, spans
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, build_span_tree
from repro.resilience import (CircuitBreaker, Retry, RetryBudgetExceeded,
                              Timeout)
from repro.serve.coalesce import Coalescer
from repro.serve.hot_cache import HotCache
from repro.serve.service import ProfilingService, render_json

_REQUESTS = metrics.counter(
    "serve.requests", "HTTP requests by route and status")
_COMPUTATIONS = metrics.counter(
    "serve.computations", "engine computations dispatched to the pool")
_SHED = metrics.counter(
    "serve.shed", "requests refused with 503 under backpressure")
_LATENCY = metrics.histogram(
    "serve.request_seconds", "request wall-clock by route")
_INFLIGHT = metrics.gauge(
    "serve.inflight", "computations currently pending or running")
_STALE_SERVED = metrics.counter(
    "resilience.stale_served",
    "degraded responses served from last-known-good bytes")
_DEGRADED = metrics.counter(
    "resilience.degraded",
    "degraded refusals (503/504) with no stale bytes to fall back on")

#: Default worker threads: engine computes release the GIL inside NumPy
#: for long stretches, but they are still CPU-heavy — a small pool.
DEFAULT_WORKERS = 4

#: Default queue-depth limit: leaders pending + running before shedding.
DEFAULT_QUEUE_LIMIT = 32

#: Seconds suggested to a shed client.
RETRY_AFTER_S = 1

#: Default breaker: a handful of consecutive compute failures opens the
#: circuit; the next probe is admitted a few seconds later.
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_RESET_S = 5.0

#: Last-known-good entries kept for stale-while-revalidate degradation.
STALE_STORE_ENTRIES = 4096

#: Bytes of last-known-good bodies kept: the hot cache's default budget.
#: Grid bodies run to hundreds of KB, so the entry bound alone would let
#: the store grow past a gigabyte.
STALE_STORE_BYTES = 64 * 1024 * 1024

#: Default serve-side retry: computes are seconds, so two quick retries
#: absorb an injected transient without blowing the route budget.
DEFAULT_SERVE_RETRY = Retry(max_attempts=3, base_delay_s=0.01,
                            max_delay_s=0.1, deadline_s=10.0)


class StaleStore:
    """Last-known-good response bytes, kept beyond hot-cache eviction.

    The hot cache is bytes-bounded and churns under load; this store is
    an LRU bounded by both entries and bytes, and *only* consulted when
    the engine cannot be asked (breaker open, compute failed, budget
    expired) — stale bytes are by construction a previously-correct
    rendering of the same content-addressed key, so degrading to them can
    serve outdated freshness but never wrong bytes.  A body larger than
    the whole byte budget is not kept.
    """

    def __init__(self, capacity: int = STALE_STORE_ENTRIES):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.capacity_bytes = STALE_STORE_BYTES
        self.bytes = 0
        self._entries: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> bytes | None:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: bytes) -> None:
        if len(value) > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= len(old)
        self._entries[key] = value
        self.bytes += len(value)
        while (len(self._entries) > self.capacity
               or self.bytes > self.capacity_bytes):
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= len(evicted)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class Response:
    """One HTTP response: status, rendered body, extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)


def _json_response(status: int, payload: dict, **headers) -> Response:
    return Response(status, render_json(payload), headers=headers)


def _error(status: int, message: str, **extra) -> Response:
    return _json_response(status, {"error": message, **extra})


class App:
    """Routes requests onto one :class:`ProfilingService`.

    Transport-agnostic: :meth:`handle` maps ``(method, path, body)`` to
    a :class:`Response`, so tests and the load harness can drive it
    in-process while :mod:`repro.serve.http` exposes it over sockets.
    """

    def __init__(self, service: ProfilingService | None = None, *,
                 workers: int = DEFAULT_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 hot_cache: HotCache | None = None,
                 flight: FlightRecorder | None = None,
                 flight_capacity: int = DEFAULT_CAPACITY,
                 event_log: str | None = None,
                 breaker: CircuitBreaker | None = None,
                 timeout: Timeout | None = None,
                 retry: Retry | None = None):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        self.service = service if service is not None else ProfilingService()
        self.hot = hot_cache if hot_cache is not None else HotCache()
        self.stale = StaleStore()
        self.coalescer = Coalescer()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=DEFAULT_BREAKER_THRESHOLD,
            reset_timeout_s=DEFAULT_BREAKER_RESET_S)
        self.timeout = timeout if timeout is not None else Timeout()
        self.retry = retry if retry is not None else DEFAULT_SERVE_RETRY
        self.queue_limit = queue_limit
        self.workers = workers
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self.inflight = 0
        self.active_requests = 0
        self.draining = False
        self.started = time.monotonic()
        self.flight = flight if flight is not None else FlightRecorder(
            capacity=flight_capacity, event_log=event_log)
        self.flight.install(spans.get_tracer())

    def close(self) -> None:
        """Stop the worker pool and detach the recorder (idempotent)."""
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.flight.uninstall()

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful-shutdown half of SIGTERM handling: stop admitting
        (``/readyz`` flips to 503, keep-alive connections close after
        their in-flight response), wait for active requests to finish,
        then flush the flight recorder's event log.  True if everything
        finished inside ``timeout_s``.
        """
        self.draining = True
        deadline = time.monotonic() + timeout_s
        while self.active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.active_requests == 0
        self.flight.close()  # flushes + closes the event log
        return drained

    # ---------------------------------------------------------------- handle
    async def handle(self, method: str, path: str,
                     body: bytes = b"") -> Response:
        """Serve one request; never raises (errors become 4xx/5xx JSON)."""
        start = time.perf_counter()
        route = "unknown"
        trace_id = ""
        meta = {"cache": "none"}
        self.active_requests += 1
        with spans.span("serve.request", category="serve", method=method,
                        path=path) as request_span:
            if request_span is not None:
                trace_id = request_span.trace_id
                self.flight.begin(trace_id)
            try:
                route, response = await self._route(method, path, body, meta)
            except Exception as error:  # the server must outlive any bug
                response = _error(500, f"{type(error).__name__}: {error}")
            finally:
                self.active_requests -= 1
            spans.annotate(route=route, status=response.status,
                           cache=meta["cache"])
        duration_s = time.perf_counter() - start
        _REQUESTS.inc(route=route, status=response.status)
        _LATENCY.observe(duration_s, route=route)
        if trace_id:
            response.headers.setdefault("X-Trace-Id", trace_id)
            self.flight.complete(
                trace_id, route=route, method=method, path=path,
                status=response.status, duration_s=duration_s,
                cache=meta["cache"])
        return response

    async def _route(self, method: str, path: str, body: bytes,
                     meta: dict) -> tuple[str, Response]:
        if path == "/healthz":
            return "healthz", self._healthz(method)
        if path == "/readyz":
            return "readyz", self._readyz(method)
        if path == "/stats":
            return "stats", self._stats(method)
        if path == "/metrics":
            return "metrics", self._metrics(method)
        if path == "/debug/requests":
            return "debug", self._debug_requests(method)
        if path.startswith("/debug/trace/"):
            return "debug", self._debug_trace(
                method, path[len("/debug/trace/"):])
        if path == "/points":
            if method != "GET":
                return "points", _error(405, "use GET")
            return "points", _json_response(
                200, self.service.points_payload())
        if path.startswith("/profile/"):
            return "profile", await self._point_route(
                method, "profile", path[len("/profile/"):],
                lambda point: render_json(
                    self.service.profile_payload(point)), meta)
        if path.startswith("/perfetto/"):
            return "perfetto", await self._point_route(
                method, "perfetto", path[len("/perfetto/"):],
                self.service.perfetto_payload, meta)
        if path == "/grid":
            return "grid", await self._grid(method, body, meta)
        return "unknown", _error(404, f"no route for {path!r}", routes=[
            "/healthz", "/readyz", "/stats", "/metrics", "/points",
            "/profile/<point>", "/perfetto/<point>", "/grid",
            "/debug/requests", "/debug/trace/<trace_id>"])

    # ---------------------------------------------------------------- routes
    def _healthz(self, method: str) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        return _json_response(200, {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started, 3),
        })

    def _readyz(self, method: str) -> Response:
        """Readiness: 503 while draining so load balancers stop routing
        here; the breaker state rides along for dashboards (an open
        breaker still serves hot/stale bytes, so it stays *ready*)."""
        if method != "GET":
            return _error(405, "use GET")
        payload = {
            "ready": not self.draining,
            "draining": self.draining,
            "breaker": self.breaker.state,
        }
        return _json_response(503 if self.draining else 200, payload)

    def _stats(self, method: str) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        snapshot = metrics.get_registry().snapshot()
        return _json_response(200, {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "inflight": self.inflight,
            "draining": self.draining,
            "breaker": self.breaker.snapshot(),
            "stale_entries": len(self.stale),
            "stale_bytes": self.stale.bytes,
            "hot_cache": self.hot.snapshot(),
            "requests_by_route": _requests_by_route(snapshot),
            "route_latency": _route_latency(snapshot),
            "flight": self.flight.snapshot(),
            "metrics": snapshot,
            "hit_rates": metrics.hit_rates(snapshot),
        })

    def _metrics(self, method: str) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        text = prometheus.render_registry()
        return Response(200, text.encode(),
                        content_type=prometheus.CONTENT_TYPE)

    def _debug_requests(self, method: str) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        return _json_response(200, {
            "flight": self.flight.snapshot(),
            "requests": [record.summary()
                         for record in self.flight.records()],
        })

    def _debug_trace(self, method: str, trace_id: str) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        record = self.flight.lookup(trace_id)
        if record is None:
            return _error(404, f"trace {trace_id!r} not in the flight "
                          "recorder (expired or never recorded)",
                          held=self.flight.snapshot()["held"])
        from repro.obs.flight import spans_from_dicts
        from repro.obs.timeline_export import spans_to_chrome_trace
        return _json_response(200, {
            **record.as_dict(),
            "tree": build_span_tree(record.spans),
            "perfetto": spans_to_chrome_trace(
                spans_from_dicts(record.spans)),
        })

    async def _point_route(self, method: str, route: str, point: str,
                           body_of, meta: dict) -> Response:
        if method != "GET":
            return _error(405, "use GET")
        try:
            key = self.service.point_key(route, point)
        except KeyError:
            from repro.experiments.points import POINT_REGISTRY
            return _error(404, f"unknown operating point {point!r}",
                          valid=sorted(POINT_REGISTRY))
        return await self._cached(route, key, lambda: body_of(point), meta)

    async def _grid(self, method: str, body: bytes, meta: dict) -> Response:
        if method != "POST":
            return _error(405, "POST a grid spec")
        import json as json_mod
        try:
            spec = json_mod.loads(body or b"{}")
        except json_mod.JSONDecodeError as error:
            return _error(400, f"request body is not JSON: {error}")
        try:
            model, trainings = self.service.parse_grid_spec(spec)
        except ValueError as error:
            return _error(400, str(error))
        address = self.service.grid_address(model, trainings)
        return await self._cached(
            "grid", f"grid:{address}",
            lambda: render_json(self.service.grid_payload(
                model, trainings, address)),
            meta)

    # ----------------------------------------------------- cache + coalesce
    async def _cached(self, route: str, key: str, compute,
                      meta: dict) -> Response:
        """Hot cache -> breaker -> coalesce -> shed -> worker pool.

        ``compute`` returns the rendered response body.

        Degradation ladder when the engine cannot answer (breaker open,
        compute failed after retries, route budget expired): stale bytes
        from :class:`StaleStore` if the key was ever rendered — outdated
        freshness, never wrong bytes — else 503/504 with ``Retry-After``.
        """
        cached = self.hot.get(key)
        if cached is not None:
            meta["cache"] = "hot"
            return Response(200, cached)

        # No awaits between the leadership check and Coalescer.run:
        # the decision is atomic on the event loop.  The breaker guards
        # *computations*, so only would-be leaders consult it (followers
        # ride an admitted in-flight compute; hot hits skip it above).
        if self.coalescer.leader(key):
            if not self.breaker.allow():
                return self._degraded(
                    route, key, meta, 503,
                    "engine circuit breaker is open, retry shortly")
            if self.inflight >= self.queue_limit:
                _SHED.inc(route=route)
                meta["cache"] = "shed"
                shed = _error(503, "profiling queue is full, retry shortly",
                              retry_after_s=RETRY_AFTER_S)
                shed.headers["Retry-After"] = str(RETRY_AFTER_S)
                return shed
            meta["cache"] = "computed"
            self.inflight += 1
            _INFLIGHT.set(self.inflight)
        else:
            meta["cache"] = "coalesced"

        loop = asyncio.get_running_loop()

        async def leader_compute() -> bytes:
            try:
                _COMPUTATIONS.inc(route=route)
                # Carry the open span stack (the leader's serve.request
                # span) into the worker thread: engine spans opened by
                # the compute parent into the request's trace instead of
                # starting orphan traces.  The serve fault sites and the
                # retry policy run inside the worker thread too, so an
                # injected transient is absorbed without a loop stall.
                context = contextvars.copy_context()

                def _attempt() -> bytes:
                    fault_sites.inject_delay("serve.slow")
                    fault_sites.inject_failure("serve.fail")
                    return compute()

                rendered = await loop.run_in_executor(
                    self.executor,
                    lambda: context.run(
                        lambda: self.retry.call(_attempt, token=route)))
            except BaseException:
                self.breaker.record_failure()
                raise
            finally:
                self.inflight -= 1
                _INFLIGHT.set(self.inflight)
            self.hot.put(key, rendered)
            self.stale.put(key, rendered)
            self.breaker.record_success()
            return rendered

        budget_s = self.timeout.budget_s(route)
        # acquire() is synchronous: no await separates the leader()
        # check above from the table insertion, even under wait_for.
        task = self.coalescer.acquire(key, leader_compute, route=route)
        try:
            if budget_s is not None:
                body = await asyncio.wait_for(asyncio.shield(task),
                                              timeout=budget_s)
            else:
                body = await asyncio.shield(task)
        except asyncio.TimeoutError:
            # This waiter's budget expired; the leader (shielded inside
            # the coalescer) keeps running and will settle the breaker.
            self.timeout.expired(route)
            return self._degraded(
                route, key, meta, 504,
                f"{route} exceeded its {budget_s:g}s budget")
        except RetryBudgetExceeded as error:
            return self._degraded(route, key, meta, 503, str(error))
        except Exception as error:
            return _error(500, f"{type(error).__name__}: {error}")
        return Response(200, body)

    def _degraded(self, route: str, key: str, meta: dict, status: int,
                  reason: str) -> Response:
        """Stale bytes when available, else ``status`` + ``Retry-After``."""
        stale = self.stale.get(key)
        if stale is not None:
            meta["cache"] = "stale"
            _STALE_SERVED.inc(route=route)
            return Response(200, stale, headers={"X-Repro-Stale": "1"})
        meta["cache"] = "degraded"
        _DEGRADED.inc(route=route)
        retry_after_s = max(round(self.breaker.retry_after_s()),
                            RETRY_AFTER_S)
        degraded = _error(status, f"service degraded: {reason}",
                          retry_after_s=retry_after_s)
        degraded.headers["Retry-After"] = str(retry_after_s)
        return degraded


# -------------------------------------------------- derived /stats sections
def _requests_by_route(snapshot: dict) -> dict:
    """Fold ``serve.requests{route=,status=}`` into per-route totals."""
    from repro.obs.prometheus import parse_label_key

    by_route: dict[str, dict] = {}
    series = snapshot.get("serve.requests", {}).get("series", {})
    for key, count in series.items():
        labels = parse_label_key(key)
        route = labels.get("route", "unknown")
        entry = by_route.setdefault(route, {"total": 0, "by_status": {}})
        entry["total"] += count
        status = labels.get("status", "?")
        entry["by_status"][status] = \
            entry["by_status"].get(status, 0) + count
    return {route: by_route[route] for route in sorted(by_route)}


def _route_latency(snapshot: dict) -> dict:
    """Per-route latency summaries (ms) from ``serve.request_seconds``."""
    from repro.obs.prometheus import parse_label_key

    latency: dict[str, dict] = {}
    series = snapshot.get("serve.request_seconds", {}).get("series", {})
    for key, stats in series.items():
        route = parse_label_key(key).get("route", "unknown")
        latency[route] = {
            "count": stats["count"],
            "mean_ms": round(stats["sum"] / stats["count"] * 1e3, 3)
            if stats["count"] else 0.0,
            **{f"{q}_ms": round(stats[q] * 1e3, 3)
               for q in ("p50", "p90", "p99") if q in stats},
        }
    return {route: latency[route] for route in sorted(latency)}
