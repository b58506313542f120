"""Parallelism planner: search (TS x PP x DP) factorizations of a cluster.

Given a device count and the intra-/inter-node links, enumerates the ways
to factor it into tensor-slicing ways x pipeline stages x data-parallel
replicas, prices each with the corresponding models, discards layouts
whose per-device footprint exceeds memory, and ranks by cluster
throughput.  The per-layout cost composition follows the models' own
assumptions:

* tensor slicing divides encoder compute and optimizer state by its ways
  and adds serialized activation AllReduces (fast intra-node link);
* pipelining divides the (possibly sliced) stage compute further and adds
  bubble + boundary-transfer time;
* data parallelism replicates and adds mostly-overlapped gradient
  AllReduce exposure on the slow link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BertConfig, TrainingConfig
from repro.distributed.collectives import ring_allreduce_time
from repro.distributed.network import LinkSpec
from repro.distributed.pipeline import stage_overheads
from repro.distributed.tensor_slicing import (
    build_sliced_iteration_trace, sliced_parameter_inventory,
    tensor_slicing_communication)
from repro.hw.device import DeviceModel
from repro.memoryplan.footprint import training_footprint
from repro.ops.base import Component
from repro.profiler.profiler import profile_trace
from repro.report.tables import format_table


@dataclass(frozen=True)
class ParallelLayout:
    """One evaluated cluster layout.

    Attributes:
        ts_ways / pp_stages / dp_replicas: the factorization.
        iteration_s: per-iteration time (None if the layout is infeasible).
        fits_memory: per-device footprint within capacity.
        feasible: divisibility and memory constraints all met.
    """

    ts_ways: int
    pp_stages: int
    dp_replicas: int
    iteration_s: float | None
    fits_memory: bool
    feasible: bool

    @property
    def devices(self) -> int:
        return self.ts_ways * self.pp_stages * self.dp_replicas

    @property
    def label(self) -> str:
        return (f"TS{self.ts_ways} x PP{self.pp_stages} x "
                f"DP{self.dp_replicas}")

    def throughput(self, tokens_per_iteration: int) -> float | None:
        """Cluster tokens/s (global batch = per-device batch x replicas)."""
        if self.iteration_s is None:
            return None
        return tokens_per_iteration * self.dp_replicas / self.iteration_s


def _factorizations(devices: int, max_ts: int = 8,
                    max_pp: int = 8) -> list[tuple[int, int, int]]:
    """All (ts, pp, dp) triples with ts*pp*dp == devices."""
    triples = []
    for ts in (1, 2, 4, 8):
        if ts > max_ts or devices % ts:
            continue
        rest = devices // ts
        for pp in (1, 2, 4, 8):
            if pp > max_pp or rest % pp:
                continue
            triples.append((ts, pp, rest // pp))
    return triples


def evaluate_layout(model: BertConfig, training: TrainingConfig,
                    device: DeviceModel, *, ts_ways: int, pp_stages: int,
                    dp_replicas: int, intra_link: LinkSpec,
                    inter_link: LinkSpec,
                    micro_batches: int = 8) -> ParallelLayout:
    """Price one (TS, PP, DP) layout."""
    divisible = (model.num_heads % ts_ways == 0
                 and model.d_ff % ts_ways == 0
                 and model.num_layers % pp_stages == 0
                 and training.batch_size % micro_batches == 0)
    if not divisible:
        return ParallelLayout(ts_ways=ts_ways, pp_stages=pp_stages,
                              dp_replicas=dp_replicas, iteration_s=None,
                              fits_memory=False, feasible=False)

    # Per-device compute from the sliced trace, then split across stages.
    trace = build_sliced_iteration_trace(model, training, ts_ways)
    profile = profile_trace(trace, device)
    encoder = profile.time_of(component=Component.TRANSFORMER)
    other = profile.total_time - encoder
    stage_compute = encoder / pp_stages + other

    # TS activation AllReduces (serialized) for this device's layers.
    ts_comm = tensor_slicing_communication(model, training, intra_link,
                                           ts_ways) / pp_stages

    pipeline_idle, boundary = stage_overheads(
        model, training, intra_link, stages=pp_stages,
        micro_batches=micro_batches, stage_compute=stage_compute)

    # DP gradient AllReduce (mostly overlapped; expose a conservative 10%).
    dp_exposed = 0.0
    if dp_replicas > 1:
        grad_bytes = (sum(t.n_elements for t in
                          sliced_parameter_inventory(model, ts_ways))
                      // pp_stages
                      * training.precision.activation_bytes)
        dp_exposed = 0.1 * ring_allreduce_time(grad_bytes, dp_replicas,
                                               inter_link)

    iteration = stage_compute + ts_comm + pipeline_idle + boundary + dp_exposed

    # Memory: weights/optimizer shard by TS and PP; activations by PP only.
    footprint = training_footprint(model, training)
    shard = ts_ways * pp_stages
    per_device = (footprint.weights / shard + footprint.gradients / shard
                  + footprint.optimizer_state / shard
                  + footprint.activations / pp_stages
                  + footprint.workspace)
    fits = per_device <= device.hbm_capacity_gb * 1e9

    return ParallelLayout(ts_ways=ts_ways, pp_stages=pp_stages,
                          dp_replicas=dp_replicas,
                          iteration_s=iteration, fits_memory=fits,
                          feasible=fits)


def plan(model: BertConfig, training: TrainingConfig, device: DeviceModel,
         *, devices: int, intra_link: LinkSpec, inter_link: LinkSpec,
         micro_batches: int = 8) -> list[ParallelLayout]:
    """Evaluate every factorization of ``devices``; best throughput first."""
    if devices < 1:
        raise ValueError("devices must be >= 1")
    layouts = [evaluate_layout(model, training, device, ts_ways=ts,
                               pp_stages=pp, dp_replicas=dp,
                               intra_link=intra_link, inter_link=inter_link,
                               micro_batches=micro_batches)
               for ts, pp, dp in _factorizations(devices)]
    tokens = training.tokens_per_iteration

    def key(layout: ParallelLayout) -> float:
        throughput = layout.throughput(tokens)
        return -(throughput or 0.0) if layout.feasible else 1.0
    return sorted(layouts, key=key)


def render_plan(layouts: list[ParallelLayout],
                tokens_per_iteration: int) -> str:
    rows = []
    for layout in layouts:
        if layout.feasible:
            throughput = layout.throughput(tokens_per_iteration)
            rows.append((layout.label,
                         f"{layout.iteration_s * 1e3:.0f} ms",
                         f"{throughput:,.0f} tok/s", "yes"))
        else:
            reason = ("memory" if layout.iteration_s is not None
                      else "divisibility")
            rows.append((layout.label, "-", f"infeasible ({reason})", "no"))
    return format_table(("layout", "iteration", "cluster throughput",
                         "feasible"), rows)
