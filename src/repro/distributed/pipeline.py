"""Pipeline-parallel training model (GPipe/Megatron-2-style).

The paper covers data parallelism and tensor slicing; pipeline parallelism
is the third axis production systems combine with them.  The model here is
the standard synchronous-pipeline accounting:

* ``S`` stages each hold a contiguous slice of the encoder (plus the
  embedding on stage 0 and the output head on stage ``S-1``);
* the global batch is split into ``M`` micro-batches streamed through the
  stages; with forward and backward both pipelined, the bubble (idle)
  fraction is ``(S - 1) / (S - 1 + M)``;
* each stage boundary moves one activation tensor per micro-batch forward
  and one gradient back;
* the optimizer runs once per iteration on each stage's parameter slice.
"""

from __future__ import annotations

from repro.config import BertConfig, TrainingConfig
from repro.distributed.network import LinkSpec
from repro.distributed.timeline import DeviceTimeline, compute_buckets
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel


def pipeline_bubble_fraction(stages: int, micro_batches: int) -> float:
    """Idle fraction of a synchronous pipeline."""
    if stages < 1 or micro_batches < 1:
        raise ValueError("stages and micro_batches must be >= 1")
    return (stages - 1) / (stages - 1 + micro_batches)


def stage_overheads(model: BertConfig, training: TrainingConfig,
                    link: LinkSpec, *, stages: int, micro_batches: int,
                    stage_compute: float) -> tuple[float, float]:
    """(bubble idle, exposed boundary transfer) seconds of a stage whose
    compute is ``stage_compute``; both zero for a single stage.

    Each micro-batch sends one activation forward and one gradient back
    over ``link``; only what outlasts a micro-batch of compute is exposed.
    """
    bubble = pipeline_bubble_fraction(stages, micro_batches)
    if stages == 1:
        return 0.0, 0.0
    idle = stage_compute * bubble / (1.0 - bubble)
    activation_bytes = (training.tokens_per_iteration // micro_batches
                        * model.d_model
                        * training.precision.activation_bytes)
    per_transfer = link.transfer_time(activation_bytes)
    micro_compute = stage_compute / micro_batches
    exposed = max(0.0, per_transfer - micro_compute) * 2 * micro_batches
    return idle, exposed


def pipeline_timeline(model: BertConfig, training: TrainingConfig,
                      device: DeviceModel, link: LinkSpec, *,
                      stages: int, micro_batches: int,
                      label: str | None = None) -> DeviceTimeline:
    """Per-device iteration breakdown under ``stages``-way pipelining.

    Reported for the steady-state (deepest-loaded) stage: encoder compute
    and optimizer scale by ``1/stages``; the pipeline bubble is charged as
    idle time in its own bucket; activation transfers between stages are
    pipelined with compute and only their unhidden remainder is exposed.

    Args:
        training: the *per-iteration* batch; it is split into
            ``micro_batches`` pipeline slices, so it must divide evenly.
    """
    if model.num_layers % stages:
        raise ValueError(f"{stages} stages do not divide "
                         f"{model.num_layers} layers")
    if training.batch_size % micro_batches:
        raise ValueError("micro_batches must divide the batch size")

    buckets = compute_buckets(run_point(model, training, device)[1])
    buckets["transformer"] /= stages
    if stages > 1:
        buckets["embedding"] = 0.0  # stage 0's work
    buckets["optimizer"] /= stages
    # The last stage also runs the output head; report that stage.
    buckets["pipeline_bubble"], buckets["communication"] = stage_overheads(
        model, training, link, stages=stages, micro_batches=micro_batches,
        stage_compute=buckets["transformer"] + buckets["output"])
    return DeviceTimeline(
        label=label or (f"PP {stages}-stage, M={micro_batches}, "
                        f"B={training.batch_size}"),
        devices=stages, per_device_batch=training.batch_size,
        buckets=buckets)


def best_micro_batch_count(model: BertConfig, training: TrainingConfig,
                           device: DeviceModel, link: LinkSpec,
                           stages: int, candidates=(1, 2, 4, 8, 16, 32)
                           ) -> tuple[int, DeviceTimeline]:
    """Pick the micro-batch count minimizing per-iteration time.

    More micro-batches shrink the bubble but shrink per-micro-batch
    compute below the boundary transfer time; the optimum balances both.
    """
    best: tuple[int, DeviceTimeline] | None = None
    for micro in candidates:
        if training.batch_size % micro:
            continue
        timeline = pipeline_timeline(model, training, device, link,
                                     stages=stages, micro_batches=micro)
        if best is None or timeline.total < best[1].total:
            best = (micro, timeline)
    if best is None:
        raise ValueError("no candidate micro-batch count divides the batch")
    return best
