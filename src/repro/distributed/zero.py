"""ZeRO-style optimizer-state partitioning (the paper's Sec. 5.2 aside).

The paper notes that data-parallel training's "communication overheads and
redundant updates could potentially be reduced by making each device gather
a reduced copy of a subset of gradients and only update the corresponding
subset of parameters [ZeRO, 69]. However, certain optimizers such as LAMB
require normalization of all the layers' gradients at the beginning of the
algorithm" — a serialization caveat this model makes quantitative.

Mechanics modeled (ZeRO stage-2-like):

* gradients are reduce-scattered so each of ``D`` replicas owns ``1/D`` of
  them (same wire cost as ring AllReduce's first half);
* each device runs the optimizer on its ``1/D`` parameter shard — the
  update phase shrinks by ``D``;
* updated parameters are all-gathered back (the second half of the ring);
* for LAMB, a global gradient-norm AllReduce (tiny payload, one scalar per
  device after local partial norms) still gates the update.
"""

from __future__ import annotations

import math

from repro.config import BertConfig, TrainingConfig
from repro.distributed.collectives import allgather_time, ring_allreduce_time
from repro.distributed.data_parallel import exposed_dp_communication
from repro.distributed.network import LinkSpec
from repro.distributed.passes import global_norm_rows
from repro.distributed.timeline import DeviceTimeline, compute_buckets
from repro.experiments.common import run_point
from repro.hw.device import DeviceModel
from repro.trace.parameters import bert_parameter_inventory


def zero_dp_timeline(model: BertConfig, training: TrainingConfig,
                     device: DeviceModel, link: LinkSpec, devices: int, *,
                     overlap: bool = True,
                     label: str | None = None) -> DeviceTimeline:
    """Per-GPU breakdown of data parallelism with partitioned optimizer.

    Compute buckets come from the single-device profile with the optimizer
    bucket divided by ``devices`` (each replica updates its shard, after
    the un-shardable global-norm reduction).  Communication is the exposed
    gradient reduce-scatter (≈ the DP AllReduce pipeline) plus the
    parameter all-gather, which cannot overlap backprop since it follows
    the update.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    profile = run_point(model, training, device)[1]
    buckets = compute_buckets(profile)

    if devices > 1:
        optimizer_full = buckets["optimizer"]
        # The global grad-norm reduction serializes and is not sharded.
        norm_time = float(
            profile.times[global_norm_rows(profile.table)].sum())
        sharded = (optimizer_full - norm_time) / devices
        buckets["optimizer"] = norm_time + sharded

        grad_bytes = sum(
            t.n_elements for t in bert_parameter_inventory(model)
        ) * training.precision.activation_bytes
        exposed_grads = exposed_dp_communication(
            model, training, profile, link, devices, overlap)
        param_gather = allgather_time(
            math.ceil(grad_bytes / devices), devices, link)
        # Norm AllReduce: one scalar per device (latency-dominated).
        norm_allreduce = ring_allreduce_time(8, devices, link)
        buckets["communication"] = (exposed_grads + param_gather
                                    + norm_allreduce)

    return DeviceTimeline(
        label=label or f"ZeRO-DP x{devices}, B={training.batch_size}",
        devices=devices, per_device_batch=training.batch_size,
        buckets=buckets)


def zero_memory_per_device(model: BertConfig, devices: int,
                           element_bytes: int = 4) -> int:
    """Optimizer-state bytes each replica holds under partitioning.

    Plain DP replicates momentum+velocity (2 states) everywhere; ZeRO
    shards them ``1/D`` — the memory headroom that lets DP train larger
    models or batches.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    params = sum(t.n_elements for t in bert_parameter_inventory(model))
    return 2 * params * element_bytes // devices
