"""Composable, vectorized trace-rewrite passes.

Every Sec. 4/6 optimization in the reproduction — elementwise-chain
fusion, attention fusion, windowed attention, activation checkpointing,
the distributed/NMC trace preparation — is a *trace rewrite*.  This module
gives them one shape: a :class:`TracePass` is a pure
``KernelTable -> KernelTable`` function, and a :class:`PassManager`
composes a sequence of them over a :class:`~repro.trace.builder.Trace`
without ever materializing the per-kernel object list.

What the manager adds around each pass:

* an obs span (``pass.<name>`` with ``rows_in``/``rows_out``) nested under
  ``pass_pipeline.run``, plus a ``pass_pipeline.passes`` counter labeled by
  pass name, so `repro spans` / `repro stats` attribute rewrite cost;
* **validation after every pass**: the structural invariants of
  :func:`repro.trace.validate.validate_trace` run after each pass, so a
  bad rewrite fails at the pass that produced it rather than deep inside
  profiling.  Training-phase ordering checks are skipped: passes like
  checkpointing legitimately interleave recompute rows, and fused
  attention's backward recomputation breaks the 2x GEMM-FLOP ratio;
* a stable pipeline **signature** (``"fuse_elementwise|checkpointing(num_
  checkpoints=4)"``) that :meth:`repro.runner.cache.ResultCache.grid_key`
  keys cached grid summaries on, so they distinguish fused / checkpointed
  / windowed variants of the same grid.

Each pass stamps the rows it produces with a provenance code (see
``KernelTable.provenance``), so a transformed table records which pass
rewrote what.

The registry at the bottom (:func:`available_passes` /
:func:`build_pipeline`) maps the CLI's ``--passes`` specs like
``"fuse_elementwise,checkpointing:4"`` onto configured pass instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.config import BertConfig, TrainingConfig
from repro.obs import metrics, spans
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable

_PASS_RUNS = metrics.counter(
    "pass_pipeline.passes", "pass executions by pass name")
_PIPELINE_RUNS = metrics.counter(
    "pass_pipeline.runs", "whole-pipeline executions")


@dataclass(frozen=True)
class PassContext:
    """What a pass may read besides the table itself.

    Attributes:
        model: model configuration of the trace being rewritten.
        training: training operating point of the trace.
    """

    model: BertConfig
    training: TrainingConfig


class TracePass:
    """Base class of all trace rewrites: a pure table-to-table function.

    Subclasses set :attr:`name`, override :meth:`apply`, and return their
    configuration from :meth:`params` (it becomes part of the pipeline
    signature, and therefore of the grid cache key).  ``apply`` must not
    mutate its input — :class:`KernelTable` arrays are read-only, so an
    accidental in-place write raises immediately.
    """

    #: Stable identifier; also the provenance stamp and span suffix.
    name: str = "trace_pass"

    def params(self) -> dict:
        """Signature-relevant configuration (empty for parameterless)."""
        return {}

    @property
    def signature(self) -> str:
        """``name`` or ``name(key=value,...)`` with sorted keys."""
        params = self.params()
        if not params:
            return self.name
        inner = ",".join(f"{key}={params[key]}" for key in sorted(params))
        return f"{self.name}({inner})"

    def apply(self, table: KernelTable, ctx: PassContext) -> KernelTable:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.signature!r})"


class PassManager:
    """Runs a pass sequence over a trace, table-native end to end.

    Attributes:
        passes: the configured passes, in application order.
    """

    def __init__(self, passes: Iterable[TracePass] = ()):
        self.passes = tuple(passes)

    @property
    def signature(self) -> str:
        """Stable pipeline identity for cache keying (empty = no-op)."""
        return "|".join(p.signature for p in self.passes)

    def run_table(self, table: KernelTable, model: BertConfig,
                  training: TrainingConfig) -> KernelTable:
        """Apply every pass to ``table`` and return the rewritten table."""
        if not self.passes:
            return table
        ctx = PassContext(model=model, training=training)
        with spans.span("pass_pipeline.run", passes=len(self.passes),
                        signature=self.signature, kernels=len(table)):
            _PIPELINE_RUNS.inc()
            for trace_pass in self.passes:
                with spans.span(f"pass.{trace_pass.name}",
                                rows_in=len(table)):
                    table = trace_pass.apply(table, ctx)
                    spans.annotate(rows_out=len(table))
                _PASS_RUNS.inc(**{"pass": trace_pass.name})
                _validate_after(table, model, training, trace_pass)
            spans.annotate(kernels_out=len(table))
        return table

    def run(self, trace: Trace) -> Trace:
        """Apply the pipeline to a trace, returning a new trace view."""
        table = self.run_table(trace.table, trace.model, trace.training)
        return Trace(trace.model, trace.training, table)

    def __repr__(self) -> str:
        return f"PassManager([{self.signature}])"


def point_pipeline(training: TrainingConfig,
                   passes: PassManager | None = None) -> PassManager:
    """One point's rewrites: checkpointing if ``training`` enables it,
    then ``passes``.  The builder and the grid engine both run this."""
    # Lazy: repro.memoryplan imports repro.trace at module scope.
    from repro.memoryplan.checkpointing import CheckpointingPass

    rewrites = ((CheckpointingPass(),) if training.activation_checkpointing
                else ())
    extra = passes.passes if passes is not None else ()
    return PassManager(rewrites + extra)


def _validate_after(table: KernelTable, model: BertConfig,
                    training: TrainingConfig, trace_pass: TracePass) -> None:
    """Structural invariant check pinned to the pass that just ran."""
    from repro.trace.validate import validate_trace

    report = validate_trace(Trace(model, training, table),
                            training_iteration=False)
    if not report.ok:
        raise ValueError(
            f"pass {trace_pass.signature!r} produced an invalid trace:\n"
            + "\n".join(report.errors))


# ---------------------------------------------------------------------------
# Registry: names the CLI / run_point callers compose pipelines from.
# Imports live inside the function so loading this module never drags in
# the fusion/memoryplan/distributed/nmc packages (and cannot go circular).
# ---------------------------------------------------------------------------

PassFactory = Callable[["str | None"], TracePass]


def available_passes() -> dict[str, tuple[str, PassFactory]]:
    """Registered passes: name -> (description, factory(optional arg)).

    The factory's string argument is the ``name:arg`` suffix of a pipeline
    spec (``"checkpointing:4"``), or ``None`` when absent.
    """
    from repro.distributed.passes import OptimizerShardPass
    from repro.fusion.attention_fusion import FusedAttentionPass
    from repro.fusion.passes import ElementwiseChainFusionPass
    from repro.fusion.windowed_transform import WindowedAttentionPass
    from repro.memoryplan.checkpointing import CheckpointingPass
    from repro.nmc.offload import OptimizerOffloadPass
    from repro.ops.windowed_attention import WindowConfig

    return {
        "fuse_elementwise": (
            "fuse same-group elementwise/LN/optimizer chains (Sec. 6.1.1)",
            lambda arg: ElementwiseChainFusionPass()),
        "fused_attention": (
            "swap eager attention ops for the two fused kernels",
            lambda arg: FusedAttentionPass()),
        "windowed_attention": (
            "swap dense attention for block-local kernels; arg = block size",
            lambda arg: WindowedAttentionPass(
                WindowConfig(block=int(arg)) if arg else None)),
        "checkpointing": (
            "insert segment-replay recomputation; arg = checkpoint count",
            lambda arg: CheckpointingPass(int(arg) if arg else None)),
        "shard_optimizer": (
            "ZeRO-style optimizer shard; arg = device count (default 8)",
            lambda arg: OptimizerShardPass(int(arg) if arg else 8)),
        "offload_optimizer": (
            "drop optimizer rows from the GPU trace (NMC prices them)",
            lambda arg: OptimizerOffloadPass()),
    }


def build_pipeline(spec: str) -> PassManager:
    """Parse ``"name[:arg],name..."`` into a configured :class:`PassManager`.

    Raises:
        KeyError: unknown pass name (message lists the valid ones).
    """
    registry = available_passes()
    passes: list[TracePass] = []
    for token in (part.strip() for part in spec.split(",")):
        if not token:
            continue
        name, _, arg = token.partition(":")
        if name not in registry:
            raise KeyError(
                f"unknown pass {name!r}; available: "
                + ", ".join(sorted(registry)))
        passes.append(registry[name][1](arg or None))
    return PassManager(passes)
