"""Plan a full BERT Large training run: configuration, packing, scale-out.

Puts the planning tools together the way an ML-systems engineer would:

1. pick the per-device configuration (batch, precision, checkpointing)
   that maximizes throughput under the 32 GB memory budget;
2. quantify what Phase-2 sequence packing saves;
3. choose the multi-device layout for a 64-GPU cluster;
4. estimate the wall-clock and energy of the full pre-training schedule
   (90% Phase-1 + 10% Phase-2 iterations, as in Sec. 2.1).

Run:
    python examples/plan_training_run.py
"""

from repro import BERT_LARGE, training_point
from repro.core import advise, render_advice
from repro.data import SequencePacker, Vocab
from repro.distributed import (PCIE4, XGMI, data_parallel_timeline,
                               hybrid_timeline)
from repro.hw import iteration_energy, mi100
from repro.profiler import profile_trace
from repro.report import format_table
from repro.trace import build_iteration_trace

TOTAL_STEPS = 31_250  # reference large-batch pre-training step budget
PHASE1_FRACTION = 0.9
CLUSTER = 64


def main() -> None:
    device = mi100()

    print("step 1 — per-device configuration (32 GB budget)")
    advice = advise(BERT_LARGE, device, batch_sizes=(16, 32, 64, 96))
    print(render_advice(advice))
    best = advice.best.training
    print(f"\npicked: {advice.best.label} at "
          f"{advice.best.tokens_per_second:,.0f} tokens/s\n")

    print("step 2 — Phase-2 sequence packing")
    vocab = Vocab(size=BERT_LARGE.vocab_size)
    packer = SequencePacker(vocab, None, seq_len=512, min_pair=48,
                            max_pair=192, seed=1)
    saved = packer.padding_saved(512)
    print(f"packing ~48-192-token pairs into n=512 sequences avoids "
          f"{saved:.0%} of the sequences (and their quadratic attention "
          "cost)\n")

    print(f"step 3 — layout for {CLUSTER} GPUs (per-device "
          f"B={best.batch_size})")
    layouts = [
        data_parallel_timeline(BERT_LARGE, best, device, PCIE4, CLUSTER,
                               overlap=True, label=f"{CLUSTER}-way DP"),
        hybrid_timeline(BERT_LARGE, best, device, ts_link=XGMI,
                        dp_link=PCIE4, ts_ways=4,
                        dp_replicas=CLUSTER // 4,
                        label=f"4-way TS x {CLUSTER // 4}-way DP"),
    ]
    rows = [(t.label, f"{t.total * 1e3:.0f} ms",
             f"{t.communication_fraction:.1%}",
             f"{best.tokens_per_iteration * t.devices / t.total:,.0f}")
            for t in layouts]
    print(format_table(("layout", "iteration", "comm share",
                        "cluster tokens/s"), rows))
    chosen = min(layouts, key=lambda t: t.total)
    print(f"\npicked: {chosen.label}\n")

    print("step 4 — schedule estimate (90% Phase-1, 10% Phase-2)")
    phase2 = training_point(2, max(1, best.batch_size // 4),
                            best.precision)
    rows = []
    total_hours = 0.0
    total_mwh = 0.0
    for phase, steps in ((best, int(TOTAL_STEPS * PHASE1_FRACTION)),
                         (phase2, int(TOTAL_STEPS * (1 - PHASE1_FRACTION)))):
        # Per-iteration time under the chosen cluster layout for this phase.
        timeline = hybrid_timeline(BERT_LARGE, phase, device, ts_link=XGMI,
                                   dp_link=PCIE4, ts_ways=4,
                                   dp_replicas=CLUSTER // 4)
        profile = profile_trace(build_iteration_trace(BERT_LARGE, phase),
                                device)
        energy = iteration_energy(profile)
        hours = steps * timeline.total / 3600
        mwh = steps * energy.total_j * timeline.devices / 3.6e9
        total_hours += hours
        total_mwh += mwh
        rows.append((phase.label, steps, f"{timeline.total * 1e3:.0f} ms",
                     f"{hours:.1f} h", f"{mwh * 1000:.1f} kWh"))
    print(format_table(("phase", "steps", "per-iteration", "wall clock",
                        "device energy"), rows))
    print(f"\nestimated total: {total_hours:.1f} hours on {CLUSTER} GPUs, "
          f"{total_mwh * 1000:.0f} kWh of device energy")


if __name__ == "__main__":
    main()
