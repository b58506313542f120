"""Data-parallel training model (Sec. 5.1, "Modeling Data Parallelism").

Every device holds a model replica and computes a full iteration on its
mini-batch; gradients are ring-AllReduced each iteration.  Because each
layer's gradients are ready as soon as its backward completes, their
communication can overlap the backprop of earlier layers — modeled, as in
the paper, by pipelining layer backward compute against per-layer
AllReduce, so only the un-hidden remainder is exposed.
"""

from __future__ import annotations

from repro.config import BertConfig, TrainingConfig
from repro.distributed.collectives import ring_allreduce_time
from repro.distributed.network import LinkSpec
from repro.distributed.timeline import DeviceTimeline, compute_buckets
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel
from repro.ops.base import Component, Phase
from repro.profiler.profiler import Profile
from repro.trace.parameters import bert_parameter_inventory, group_by_layer


def _gradient_bytes_by_group(model: BertConfig,
                             training: TrainingConfig) -> list[tuple[str, int]]:
    """(group name, gradient bytes) in backprop completion order.

    Backprop finishes the output head first, then encoder layers from last
    to first, then the embeddings — the order their gradients become
    available for communication.
    """
    grad_bytes = training.precision.activation_bytes
    groups = group_by_layer(bert_parameter_inventory(model))
    ordered: list[tuple[str, int]] = []

    def bytes_of(key: str) -> int:
        return sum(t.n_elements for t in groups[key]) * grad_bytes

    ordered.append(("output", bytes_of("output")))
    for layer in reversed(range(model.num_layers)):
        key = f"encoder.{layer}"
        ordered.append((key, bytes_of(key)))
    ordered.append(("embedding", bytes_of("embedding")))
    return ordered


def _backward_compute_after(profile: Profile,
                            model: BertConfig) -> dict[str, float]:
    """Backward compute time that *follows* each group's gradient readiness.

    For group ``encoder.L`` this is the backward time of layers L-1..0 plus
    the embedding backward — the window available to hide L's AllReduce.
    """
    layer_bwd = {
        layer: profile.time_of(phase=Phase.BACKWARD, layer_index=layer)
        for layer in range(model.num_layers)
    }
    embedding_bwd = profile.time_of(phase=Phase.BACKWARD,
                                    component=Component.EMBEDDING)
    encoder_bwd_total = sum(layer_bwd.values())

    window: dict[str, float] = {
        "output": encoder_bwd_total + embedding_bwd}
    remaining = encoder_bwd_total
    for layer in reversed(range(model.num_layers)):
        remaining -= layer_bwd[layer]
        window[f"encoder.{layer}"] = remaining + embedding_bwd
    window["embedding"] = 0.0
    return window


def exposed_dp_communication(model: BertConfig, training: TrainingConfig,
                             profile: Profile, link: LinkSpec,
                             devices: int, overlap: bool) -> float:
    """Exposed (un-hidden) gradient-communication time per iteration.

    With overlap, each group's AllReduce is pipelined behind the remaining
    backward compute: the exposed time is how far the communication stream
    runs past the end of backprop.  Without overlap, all gradients are
    reduced after backprop completes and the full AllReduce time is
    exposed (the D1 configuration of Fig. 11).
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    if devices == 1:
        return 0.0
    groups = _gradient_bytes_by_group(model, training)
    if not overlap:
        total_bytes = sum(b for _, b in groups)
        return ring_allreduce_time(total_bytes, devices, link)

    window = _backward_compute_after(profile, model)
    # Pipeline: communication of group g may start once its gradients are
    # ready and the previous AllReduce finished; compute keeps running
    # underneath.  Track both streams on a shared clock.
    compute_clock = 0.0
    comm_clock = 0.0
    total_window = window["output"]
    for name, n_bytes in groups:
        # Gradients of `name` are ready once backprop has consumed the
        # compute that precedes them.
        ready_at = total_window - window[name]
        compute_clock = max(compute_clock, ready_at)
        comm_clock = max(comm_clock, compute_clock)
        comm_clock += ring_allreduce_time(n_bytes, devices, link)
    backward_end = total_window
    return max(0.0, comm_clock - backward_end)


def data_parallel_timeline(model: BertConfig, training: TrainingConfig,
                           device: DeviceModel, link: LinkSpec,
                           devices: int, *, overlap: bool = True,
                           label: str | None = None) -> DeviceTimeline:
    """Per-GPU iteration breakdown under data parallelism.

    The compute profile equals single-device training (the model is
    replicated); only exposed AllReduce time is added.
    """
    profile = run_point(model, training, device)[1]
    buckets = compute_buckets(profile)
    buckets["communication"] = exposed_dp_communication(
        model, training, profile, link, devices, overlap)
    if label is None:
        tag = "w/ overlap" if overlap else "w/o overlap"
        label = f"DP x{devices}, B={training.batch_size}, {tag}"
    return DeviceTimeline(label=label, devices=devices,
                          per_device_batch=training.batch_size,
                          buckets=buckets)


def single_device_timeline(model: BertConfig, training: TrainingConfig,
                           device: DeviceModel,
                           label: str | None = None) -> DeviceTimeline:
    """Baseline S1: one device, no communication."""
    profile = run_point(model, training, device)[1]
    return DeviceTimeline(
        label=label or f"single, B={training.batch_size}",
        devices=1, per_device_batch=training.batch_size,
        buckets=compute_buckets(profile))
