"""The reproduction system's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` measures the workload end to end with nothing added to the
program and prints the end-to-end metrics.  ``--trace 1`` replays the
same seeded inputs with spans recorded around each layer's public
functions (from this package's files, never inside ``src/``) and prints
the per-layer metrics.  Every run prints its correctness verdicts; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

The exit code is 0 when every verdict held, 1 when a correctness check
failed, and 2 when the benchmark could not run (for example, no
``src/repro`` next to it).  ``--workload all`` runs the three workloads
in turn and prints each one's report; its JSON line prefixes every
metric with the workload name.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

import tracing
import workloads
from harness import BenchmarkError, check_checkout

WORKLOADS = ("run-all", "serve-read", "serve-sweep")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _print_report(report, metrics: dict) -> None:
    print(f"== {report.workload}")
    for name, (ok, detail, count) in report.verdicts.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}"
              + (f" ({detail})" if detail else "")
              + (f" x{count}" if count > 1 else ""))
    for label, phase in report.phases.items():
        print(f"  phase {label}: " + ", ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in phase.items()))
    for name, (value, unit) in report.named.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    print(f"  -- {'per-layer' if report.per_layer else 'end-to-end'} metrics")
    for name, (value, unit) in metrics.items():
        moves = report.moves.get(name)
        print(f"  {name:<44} {value:>14.4f} {unit}"
              + (f"  -> {moves}" if moves else ""))


def run(workload: str, seconds: float, seed: int, trace: int):
    if trace:
        report = tracing.measure(workload, seconds, seed)
        metrics = report.per_layer
    else:
        report = workloads.MEASURE[workload](seconds, seed)
        metrics = report.end_to_end
    _print_report(report, metrics)
    return report, metrics


def _terminate(signum, _frame) -> None:
    # Unwind through every ``finally`` so servers and scratch are cleaned up.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        check_checkout()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            report, measured = run(name, args.seconds, args.seed, args.trace)
            correct &= report.correct
            attempted += report.attempted
            failed += report.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({f"{prefix}{key}": {"value": value, "unit": unit}
                            for key, (value, unit) in measured.items()})
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    except Exception:  # report, never print a result for a broken run
        traceback.print_exc()
        return 2
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
