"""Megatron-style tensor slicing model (Sec. 5.1, Fig. 10).

``m``-way tensor slicing splits each layer's weight matrices among ``m``
devices — Q/K/V and FC-1 column-wise, attention-output and FC-2 row-wise —
and replicates the small DR/RC/LN layers to avoid extra communication.
Each layer requires four AllReduces of activation-sized tensors per
iteration (two forward, two backward) that, unlike data parallelism's
gradient AllReduce, **cannot** be overlapped with computation because of
data dependencies.  LAMB's work splits by ``m`` since each device owns
``1/m`` of the parameters.
"""

from __future__ import annotations

import dataclasses

from repro.config import BertConfig, TrainingConfig
from repro.distributed.collectives import ring_allreduce_time
from repro.distributed.network import LinkSpec
from repro.distributed.timeline import DeviceTimeline, compute_buckets
from repro.hw.device import DeviceModel
from repro.obs import spans
from repro.ops.base import Component, Region
from repro.profiler.profiler import profile_trace
from repro.trace.bert_trace import layout_table, pretraining_sections
from repro.trace.builder import Trace
from repro.trace.parameters import ParamTensor, bert_parameter_inventory

#: AllReduces per Transformer layer per iteration under tensor slicing:
#: one after the attention row-parallel projection and one after FC-2 in
#: the forward pass, and their mirror images in the backward pass.
ALLREDUCES_PER_LAYER = 4


def sliced_parameter_inventory(model: BertConfig,
                               ways: int) -> list[ParamTensor]:
    """One device's parameter shard under ``ways``-way slicing.

    Encoder weights are divided by ``ways``; the replicated LayerNorm
    parameters, embeddings and output head are updated redundantly on every
    device (cheap relative to the sharded matrices), so they stay whole.
    """
    if ways < 1:
        raise ValueError("ways must be >= 1")
    sharded: list[ParamTensor] = []
    for tensor in bert_parameter_inventory(model):
        is_matrix = (tensor.component is Component.TRANSFORMER
                     and len(tensor.shape) == 2)
        if is_matrix and ways > 1:
            rows = max(1, tensor.shape[0] // ways)
            sharded.append(dataclasses.replace(
                tensor, shape=(rows, tensor.shape[1])))
        else:
            sharded.append(tensor)
    return sharded


def build_sliced_iteration_trace(model: BertConfig, training: TrainingConfig,
                                 ways: int) -> Trace:
    """One device's kernel trace under ``ways``-way tensor slicing.

    Embedding and output head are replicated (full size); encoder layers
    emit their per-device shard of work; the optimizer updates only this
    device's parameter shard.  The iteration is laid out like
    :func:`build_iteration_trace`'s (:func:`layout_table`).
    """
    with spans.span("trace.build_sliced", model=model.name,
                    point=training.label, ways=ways):
        table = layout_table(model.num_layers, *pretraining_sections(
            model, training, slicing=ways,
            inventory=sliced_parameter_inventory(model, ways)))
        spans.annotate(kernels=len(table))
    return Trace(model, training, table)


def tensor_slicing_communication(model: BertConfig, training: TrainingConfig,
                                 link: LinkSpec, ways: int) -> float:
    """Serialized activation/gradient AllReduce time per iteration."""
    if ways == 1:
        return 0.0
    activation_bytes = (training.tokens_per_iteration * model.d_model
                        * training.precision.activation_bytes)
    per_allreduce = ring_allreduce_time(activation_bytes, ways, link)
    return model.num_layers * ALLREDUCES_PER_LAYER * per_allreduce


def tensor_slicing_timeline(model: BertConfig, training: TrainingConfig,
                            device: DeviceModel, link: LinkSpec,
                            ways: int, *,
                            label: str | None = None) -> DeviceTimeline:
    """Per-GPU iteration breakdown under ``ways``-way tensor slicing.

    The replicated DR+RC+LN work is reported in its own bucket, since its
    relative share grows with device count (Fig. 11's T2 observation).
    """
    trace = build_sliced_iteration_trace(model, training, ways)
    profile = profile_trace(trace, device)
    buckets = compute_buckets(profile)
    replicated = profile.time_of(component=Component.TRANSFORMER,
                                 region=Region.DR_RC_LN)
    buckets["transformer"] -= replicated
    buckets["dr_rc_ln_replicated"] = replicated
    buckets["communication"] = tensor_slicing_communication(
        model, training, link, ways)
    return DeviceTimeline(
        label=label or f"TS {ways}-way, B={training.batch_size}",
        devices=ways, per_device_batch=training.batch_size,
        buckets=buckets)
