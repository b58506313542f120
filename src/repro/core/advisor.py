"""Training-configuration advisor.

Given a model and a device, searches the (batch size, precision,
activation checkpointing) space for the highest-throughput configuration
that fits device memory — the operational question the paper's
characterization exists to answer.  Throughput comes from the frozen
timing model; memory from the footprint estimator; the advisor simply
enumerates, filters and ranks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import BertConfig, Precision, TrainingConfig
from repro.experiments.common import default_device, run_point
from repro.hw.device import DeviceModel
from repro.memoryplan.footprint import training_footprint
from repro.report.tables import format_table


@dataclass(frozen=True)
class ConfigOption:
    """One evaluated training configuration.

    Attributes:
        training: the configuration.
        fits: whether it fits device memory.
        footprint_gb: estimated memory footprint.
        iteration_s: modeled iteration time (None when it does not fit).
        tokens_per_second: training throughput (None when it does not fit).
    """

    training: TrainingConfig
    fits: bool
    footprint_gb: float
    iteration_s: float | None
    tokens_per_second: float | None

    @property
    def label(self) -> str:
        tag = "+ckpt" if self.training.activation_checkpointing else ""
        return f"{self.training.label}{tag}"


@dataclass(frozen=True)
class Advice:
    """Advisor output.

    Attributes:
        options: every evaluated configuration, best throughput first
            (non-fitting options at the end).
        best: the recommended configuration, or None if nothing fits.
    """

    options: list[ConfigOption]
    best: ConfigOption | None


def advise(model: BertConfig, device: DeviceModel | None = None, *,
           seq_len: int = 128,
           batch_sizes: tuple[int, ...] = (8, 16, 32, 64, 96),
           precisions: tuple[Precision, ...] = (Precision.FP32,
                                                Precision.MIXED),
           consider_checkpointing: bool = True) -> Advice:
    """Enumerate, filter by memory, rank by throughput.

    Checkpointed variants are only proposed where the plain variant does
    not fit — recompute is pure overhead otherwise (Sec. 4).
    """
    # Resolved once: the memory filter reads it before any point is priced.
    device = device or default_device()
    options: list[ConfigOption] = []
    for precision in precisions:
        for batch in batch_sizes:
            base = TrainingConfig(batch_size=batch, seq_len=seq_len,
                                  precision=precision)
            option = _evaluate(model, base, device)
            options.append(option)
            if consider_checkpointing and not option.fits:
                checkpointed = dataclasses.replace(
                    base, activation_checkpointing=True)
                options.append(_evaluate(model, checkpointed, device))

    fitting = [o for o in options if o.fits]
    fitting.sort(key=lambda o: -(o.tokens_per_second or 0.0))
    failing = [o for o in options if not o.fits]
    ranked = fitting + failing
    return Advice(options=ranked, best=fitting[0] if fitting else None)


def _evaluate(model: BertConfig, training: TrainingConfig,
              device: DeviceModel) -> ConfigOption:
    footprint = training_footprint(model, training)
    fits = footprint.fits(device.hbm_capacity_gb)
    if not fits:
        return ConfigOption(training=training, fits=False,
                            footprint_gb=footprint.total / 1e9,
                            iteration_s=None, tokens_per_second=None)
    iteration = run_point(model, training, device)[1].total_time
    return ConfigOption(
        training=training, fits=True,
        footprint_gb=footprint.total / 1e9,
        iteration_s=iteration,
        tokens_per_second=training.tokens_per_iteration / iteration)


def render(advice: Advice) -> str:
    """Ranked table of the evaluated configurations."""
    rows = []
    for option in advice.options:
        if option.fits:
            rows.append((option.label, f"{option.footprint_gb:.1f} GB",
                         f"{option.iteration_s * 1e3:.0f} ms",
                         f"{option.tokens_per_second:,.0f} tok/s",
                         "<= best" if option is advice.best else ""))
        else:
            rows.append((option.label, f"{option.footprint_gb:.1f} GB",
                         "-", "does not fit", ""))
    return format_table(("configuration", "memory", "iteration",
                         "throughput", ""), rows)
