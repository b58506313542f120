"""Experiment registry: one entry per paper table/figure.

Maps experiment ids to ``(run, render)`` pairs so examples, benchmarks and
the command line can regenerate any result uniformly.  Each entry names
its module under :mod:`repro.experiments`; the module (and the engine it
pulls in) is imported on the first call of ``run`` or ``render``, so
``repro list`` and a cache-hit ``repro run`` never load it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Experiment:
    """A registered experiment.

    Attributes:
        experiment_id: paper reference (``"fig3"``, ``"sec4"``, ...).
        description: what the paper shows there.
        run: produces the structured result.
        render: formats a result as text.
    """

    experiment_id: str
    description: str
    run: Callable[[], object]
    render: Callable[[object], str]


@dataclass(frozen=True)
class _Deferred:
    """``repro.experiments.<module>.<name>``, imported on first call."""

    module: str
    name: str

    def resolve(self) -> Callable:
        """The target function (imports its module if not yet loaded)."""
        return getattr(
            importlib.import_module(f"repro.experiments.{self.module}"),
            self.name)

    def __call__(self, *args):
        return self.resolve()(*args)


def _lazy(experiment_id: str, description: str, module: str) -> Experiment:
    return Experiment(experiment_id, description,
                      _Deferred(module, "run"), _Deferred(module, "render"))


REGISTRY: dict[str, Experiment] = {
    exp.experiment_id: exp for exp in (
        _lazy("fig3", "High-level runtime breakdown of pre-training",
              "fig3"),
        _lazy("fig4", "Hierarchical Transformer-layer breakdown", "fig4"),
        _lazy("fig6", "Arithmetic intensity of training GEMMs", "fig6"),
        _lazy("fig7", "Op-group intensity and bandwidth demand", "fig7"),
        _lazy("fig8", "Input-size (B, n) sweep", "fig8"),
        _lazy("fig9", "Layer-size (d_model) sweep", "fig9"),
        _lazy("sec4", "Activation checkpointing overhead", "sec4"),
        _lazy("fig11", "Multi-device per-GPU breakdown", "fig11"),
        _lazy("fig12", "Kernel and GEMM fusion impact", "fig12"),
        _lazy("nmc", "Near-memory compute for LAMB", "nmc_study"),
        _lazy("table1", "Takeaway verification", "takeaways"),
        _lazy("sec7", "Inference and fine-tuning profiles", "sec7_modes"),
        _lazy("zero", "ZeRO optimizer-state partitioning (extension)",
              "zero_study"),
        _lazy("windowed", "Windowed attention vs sequence length "
              "(extension)", "windowed_study"),
        _lazy("energy", "Iteration energy accounting (extension)",
              "energy_study"),
        _lazy("pipeline", "Pipeline vs tensor parallelism (extension)",
              "pipeline_study"),
        _lazy("fused-attention", "Kernel-fused attention vs eager "
              "(extension)", "fused_attention_study"),
        _lazy("transfer", "Cross-device transferability (Sec. 7)",
              "transfer_study"),
        _lazy("optimized", "Sec. 6 optimizations stacked (capstone)",
              "optimized_stack"),
        _lazy("robustness", "Conclusions under device-model perturbation",
              "robustness"),
        _lazy("scaling", "Future-Transformer scaling trends (extension)",
              "scaling_trends"),
        _lazy("packing", "Phase-2 sequence-packing savings (extension)",
              "packing_study"),
    )
}


def preload(experiment_ids) -> None:
    """Import the modules behind ``experiment_ids`` now.

    The executor calls this before it forks ``--jobs N`` workers, so they
    inherit the loaded engine instead of each importing it.  An entry
    whose module fails to import is skipped: its own run reports the
    error, isolated like any other experiment failure.
    """
    for experiment_id in experiment_ids:
        run = getattr(REGISTRY.get(experiment_id), "run", None)
        if isinstance(run, _Deferred):
            try:
                run.resolve()
            except Exception:
                pass

