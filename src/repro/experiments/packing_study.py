"""Extension study: what Phase-2 sequence packing saves.

Phase-2 trains at n=512 but natural pairs are much shorter; padding them
to length wastes the quadratically-priced attention.  This study samples
pair-length distributions, lays them out with first-fit decreasing
(:meth:`repro.data.packing.SequencePacker.plan`), and prices the resulting
iteration count against the one-pair-per-sequence baseline — sequences
avoided translate directly into iterations avoided at fixed shapes
(Sec. 3.1.4).  Sequence counts and occupancy depend on segment lengths
alone, so the study never generates a token: its packer has no corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BERT_LARGE, BertConfig, Precision, TrainingConfig
from repro.data.packing import SequencePacker
from repro.data.synthetic import Vocab
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel
from repro.report.tables import format_percent, format_table


@dataclass(frozen=True)
class PackingRow:
    """Packing outcome for one pair-length regime.

    Attributes:
        label: pair-length range description.
        segments: pairs sampled.
        sequences_unpacked / sequences_packed: fixed-shape sequences needed.
        mean_efficiency: token occupancy of the packed sequences.
        compute_saved: fraction of per-epoch iteration time avoided.
    """

    label: str
    segments: int
    sequences_unpacked: int
    sequences_packed: int
    mean_efficiency: float

    @property
    def compute_saved(self) -> float:
        return 1.0 - self.sequences_packed / self.sequences_unpacked


def run(model: BertConfig = BERT_LARGE, seq_len: int = 512,
        segments: int = 512,
        regimes: tuple[tuple[str, int, int], ...] = (
            ("short pairs (32-96)", 32, 96),
            ("medium pairs (64-192)", 64, 192),
            ("long pairs (128-384)", 128, 384),
        ),
        device: DeviceModel | None = None) -> list[PackingRow]:
    """Plan each regime's pairs and count sequences needed."""
    del device  # shapes are fixed; savings are shape-count ratios
    vocab = Vocab(size=model.vocab_size)
    rows = []
    for label, min_pair, max_pair in regimes:
        packer = SequencePacker(vocab, None, seq_len=seq_len,
                                min_pair=min_pair, max_pair=max_pair, seed=1)
        lengths, bins = packer.plan(segments)
        # Each bin's occupancy as PackedSequence.efficiency spells it (an
        # int over seq_len), summed in bin order.
        efficiency = sum(sum(lengths[i] for i in indices) / seq_len
                         for indices in bins) / len(bins)
        rows.append(PackingRow(
            label=label, segments=segments,
            sequences_unpacked=segments,
            sequences_packed=len(bins),
            mean_efficiency=efficiency))
    return rows


def iteration_cost_context(model: BertConfig = BERT_LARGE,
                           device: DeviceModel | None = None) -> float:
    """Phase-2 per-sequence iteration cost (seconds) for scale context."""
    training = TrainingConfig(batch_size=4, seq_len=512,
                              precision=Precision.FP32)
    _, profile = run_point(model, training, device)
    return profile.total_time / training.batch_size


def render(rows: list[PackingRow]) -> str:
    per_sequence = iteration_cost_context()
    table = [(row.label, row.segments, row.sequences_packed,
              format_percent(row.mean_efficiency),
              format_percent(row.compute_saved),
              f"{row.compute_saved * row.segments * per_sequence:.1f} s")
             for row in rows]
    return format_table(
        ("pair regime", "pairs", "packed sequences", "occupancy",
         "compute saved", f"saved per {rows[0].segments} pairs"), table)
