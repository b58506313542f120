"""Accelerator design-space exploration (the paper's Sec. 7 argument).

The paper claims its takeaways transfer across devices by compute/bandwidth
ratio, and that as compute scales faster than memory the memory-bound
operations become the bottleneck.  This example makes that concrete:

1. sweeps hypothetical accelerators with growing compute at fixed
   bandwidth and shows the non-GEMM share taking over;
2. shows the same iteration on bandwidth-boosted devices;
3. prices the near-memory-compute fix for the LAMB slice on each device.

Run:
    python examples/accelerator_design_space.py
"""

from repro import BERT_LARGE, Precision, training_point
from repro.hw import balanced_accelerator, mi100
from repro.nmc import evaluate_lamb_offload, hbm2_bank_nmc
from repro.profiler import profile_trace, summarize
from repro.report import format_table
from repro.trace import build_iteration_trace


def sweep_compute(training) -> list[tuple]:
    """Grow peak compute 1x..8x at fixed MI100 bandwidth."""
    trace = build_iteration_trace(BERT_LARGE, training)
    rows = []
    for multiplier in (1, 2, 4, 8):
        device = balanced_accelerator(46.1 * multiplier, 1228.8,
                                      name=f"{multiplier}x-compute")
        stats = summarize(profile_trace(trace, device))
        rows.append((device.name, f"{stats['total_time_s'] * 1e3:.0f} ms",
                     f"{stats['gemm']:.1%}", f"{stats['non_gemm']:.1%}",
                     f"{stats['optimizer']:.1%}"))
    return rows


def sweep_bandwidth(training) -> list[tuple]:
    """Grow memory bandwidth 1x..4x at fixed compute."""
    trace = build_iteration_trace(BERT_LARGE, training)
    rows = []
    for multiplier in (1, 2, 4):
        device = balanced_accelerator(46.1, 1228.8 * multiplier,
                                      name=f"{multiplier}x-bandwidth")
        stats = summarize(profile_trace(trace, device))
        rows.append((device.name, f"{stats['total_time_s'] * 1e3:.0f} ms",
                     f"{stats['gemm']:.1%}", f"{stats['non_gemm']:.1%}"))
    return rows


def main() -> None:
    training = training_point(1, 32, Precision.FP32)
    print(f"workload: BERT Large, {training.label}\n")

    print("compute scaling at fixed bandwidth — memory-bound ops take over")
    print(format_table(("device", "iteration", "GEMM", "non-GEMM", "LAMB"),
                       sweep_compute(training)))
    print()

    print("bandwidth scaling at fixed compute — GEMMs re-dominate")
    print(format_table(("device", "iteration", "GEMM", "non-GEMM"),
                       sweep_bandwidth(training)))
    print()

    print("near-memory compute for LAMB on the MI100-class baseline")
    nmc = hbm2_bank_nmc()
    for point in (training, training_point(1, 4, Precision.FP32),
                  training_point(1, 32, Precision.MIXED)):
        result = evaluate_lamb_offload(BERT_LARGE, point, mi100(), nmc)
        print(f"  {result.label:14s} LAMB "
              f"{result.lamb_speedup_vs_optimistic:.2f}x vs optimistic GPU, "
              f"end-to-end {result.end_to_end_improvement:+.1%}")


if __name__ == "__main__":
    main()
