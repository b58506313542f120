"""Quickstart: characterize one BERT Large pre-training iteration.

Builds the kernel trace of a Ph1-B32 iteration, prices it on the MI100-like
device model, and prints the paper's headline breakdowns (Figs. 3 and 4)
plus the GEMM-heterogeneity view (Fig. 6).

Run:
    python examples/quickstart.py
"""

from repro import BERT_LARGE, Precision, training_point
from repro.experiments import fig3, fig4, fig6
from repro.hw import mi100
from repro.profiler import profile_trace, summarize
from repro.trace import build_iteration_trace


def main() -> None:
    device = mi100()
    training = training_point(1, 32, Precision.FP32)

    trace = build_iteration_trace(BERT_LARGE, training)
    profile = profile_trace(trace, device)
    stats = summarize(profile)

    print(f"model: {BERT_LARGE.name}  "
          f"({BERT_LARGE.total_parameters() / 1e6:.0f}M parameters)")
    print(f"point: {training.label}  device: {device.name}")
    print(f"kernels launched: {len(trace)}   "
          f"modeled iteration: {stats['total_time_s'] * 1e3:.1f} ms")
    print(f"GEMM share: {stats['gemm']:.1%}   "
          f"non-GEMM (memory-bound): {stats['non_gemm']:.1%}\n")

    print("Fig. 3 — where the time goes, across operating points")
    print(fig3.render(fig3.run()))
    print()

    print("Fig. 4 — inside the Transformer layers (FP32 vs mixed precision)")
    print(fig4.render(fig4.run()))
    print()

    print("Fig. 6 — not all GEMMs are equal (ops/byte per training GEMM)")
    print(fig6.render(fig6.run()))


if __name__ == "__main__":
    main()
