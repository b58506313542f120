"""Inactive-hook overhead benchmark for the fault-injection subsystem.

The fault sites sit on hot production lines — every cache read calls
:func:`~repro.faults.sites.corrupt_bytes`, every engine compute calls
:func:`~repro.faults.sites.inject`/:func:`~repro.faults.sites.inject_failure`.
With no active plan these must be effectively free; this benchmark pins
the price.

Methodology: differencing two wall-clock runs of a millisecond-scale
workload cannot resolve a nanosecond-scale effect (scheduler noise in a
shared container is orders of magnitude larger), so each leg is built
from two *separately tight* measurements instead:

* the **hook surcharge** — per-call cost of the real (inactive) helper
  minus a bare no-op stub of the same arity, min-of-repeats over
  :data:`MICRO_CALLS` calls, clamped at zero (the helpers are a global
  read + a ``None`` check and routinely measure level with the stub);
* the **workload unit cost** — per-operation time of the real path the
  hook sits on: a :meth:`ResultCache.get_payload` hit (file read + CRC
  verify + unpickle) and a :meth:`ProfilingService.profile_payload`
  render.

``overhead_pct = hooks_per_op_surcharge / op_cost``.  The floor is
``overhead < MAX_OVERHEAD_PCT`` on both legs.

Writes ``BENCH_chaos.json`` at the repo root and exits non-zero if a
floor is missed.

Run: ``PYTHONPATH=src python benchmarks/bench_chaos.py``
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.faults import sites
from repro.runner.cache import ResultCache, reset_cache
from repro.serve.service import ProfilingService
from repro.trace.bert_trace import clear_iteration_traces

#: Floor enforced by CI: inactive hooks may slow a leg by at most this.
MAX_OVERHEAD_PCT = 2.0

MICRO_CALLS = 200_000
MICRO_REPEATS = 5
CACHE_ENTRIES = 64
CACHE_ROUNDS = 40
RENDER_CALLS = 40
WORKLOAD_REPEATS = 5

SERVE_POINT = "tiny.ph1-b2-fp32"

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _per_call_ns(fn, calls: int = MICRO_CALLS,
                 repeats: int = MICRO_REPEATS) -> float:
    """Min-of-``repeats`` per-call cost of ``fn`` over a tight loop."""
    loop = range(calls)
    for _ in loop:  # warm
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in loop:
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e9


def _per_op_ns(fn, ops: int, repeats: int = WORKLOAD_REPEATS) -> float:
    fn()  # warm page cache, memos, branch predictors
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / ops * 1e9


def _surcharge_ns(real_ns: float, stub_ns: float) -> float:
    """The hook's cost beyond a bare call; clamped — the helpers often
    measure level with (or inside noise of) the stub."""
    return max(0.0, real_ns - stub_ns)


def measure_hooks() -> dict:
    """Per-call surcharge of every inactive site helper, in ns."""
    data = b"x" * 4096

    def stub(*args, **kwargs):
        return None

    return {
        "corrupt_bytes": _surcharge_ns(
            _per_call_ns(lambda: sites.corrupt_bytes("cache.corrupt",
                                                     data)),
            _per_call_ns(lambda: stub("cache.corrupt", data))),
        "inject": _surcharge_ns(
            _per_call_ns(lambda: sites.inject("compute.slow")),
            _per_call_ns(lambda: stub("compute.slow"))),
        "inject_failure": _surcharge_ns(
            _per_call_ns(lambda: sites.inject_failure("compute.fail")),
            _per_call_ns(lambda: stub("compute.fail"))),
        "decide": _surcharge_ns(
            _per_call_ns(lambda: sites.decide("worker.kill")),
            _per_call_ns(lambda: stub("worker.kill"))),
    }


def bench_cache_leg(root: Path, hooks: dict) -> dict:
    cache = ResultCache(root / "bench-cache")
    keys = [f"{index:02x}" * 32 for index in range(CACHE_ENTRIES)]
    for key in keys:
        cache.put_payload(key, {"output": "x" * 2048, "key": key})

    def read_all():
        for _ in range(CACHE_ROUNDS):
            for key in keys:
                assert cache.get_payload(key) is not None

    read_ns = _per_op_ns(read_all, CACHE_ENTRIES * CACHE_ROUNDS)
    surcharge_ns = hooks["corrupt_bytes"]  # one hook per read
    return {
        "reads": CACHE_ENTRIES * CACHE_ROUNDS,
        "read_us": read_ns / 1e3,
        "hook_surcharge_ns": surcharge_ns,
        "overhead_pct": surcharge_ns / read_ns * 100.0,
    }


def bench_render_leg(hooks: dict) -> dict:
    service = ProfilingService()

    def render_all():
        for _ in range(RENDER_CALLS):
            service.profile_payload(SERVE_POINT)

    render_ns = _per_op_ns(render_all, RENDER_CALLS)
    surcharge_ns = hooks["inject"] + hooks["inject_failure"]
    return {
        "calls": RENDER_CALLS,
        "render_us": render_ns / 1e3,
        "hook_surcharge_ns": surcharge_ns,
        "overhead_pct": surcharge_ns / render_ns * 100.0,
    }


def run() -> dict:
    sites.deactivate()
    clear_iteration_traces()
    try:
        hooks = measure_hooks()
        with tempfile.TemporaryDirectory(prefix="bench-chaos-") as root:
            cache = bench_cache_leg(Path(root), hooks)
            render = bench_render_leg(hooks)
    finally:
        sites.deactivate()
        reset_cache()
        clear_iteration_traces()
    return {
        "hook_surcharge_ns": hooks,
        "cache": cache,
        "render": render,
        "floors": {"max_overhead_pct": MAX_OVERHEAD_PCT},
    }


def main() -> int:
    payload = run()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    hooks = payload["hook_surcharge_ns"]
    print("hook surcharge (inactive, vs a no-op stub): "
          + ", ".join(f"{name} {ns:.0f}ns"
                      for name, ns in sorted(hooks.items())))
    cache, render = payload["cache"], payload["render"]
    print(f"cache: {cache['read_us']:.1f}us/read, hook surcharge "
          f"{cache['hook_surcharge_ns']:.0f}ns -> "
          f"{cache['overhead_pct']:.3f}% overhead")
    print(f"render: {render['render_us']:.0f}us/call, hook surcharge "
          f"{render['hook_surcharge_ns']:.0f}ns -> "
          f"{render['overhead_pct']:.3f}% overhead")

    failed = False
    for leg in ("cache", "render"):
        overhead = payload[leg]["overhead_pct"]
        if overhead >= MAX_OVERHEAD_PCT:
            print(f"FAIL: {leg} inactive-hook overhead {overhead:.3f}% "
                  f">= {MAX_OVERHEAD_PCT}%")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
