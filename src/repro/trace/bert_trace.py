"""Kernel-level trace of one BERT pre-training iteration.

This is the software analogue of the rocProf trace the paper collects
(Sec. 3.1.4): every kernel of the forward pass, backward pass and optimizer
update, in launch order, with exact shapes, FLOPs and bytes.  The GEMM
shapes emitted here are precisely Table 2b's; the elementwise/reduction
kernel decompositions follow the eager execution the paper describes in
Sec. 3.2.3.

Layout conventions:

* All sequences of the mini-batch are packed into a single
  ``(B*n) x d_model`` activation matrix, so a mini-batch of one still
  yields matrix-matrix operations (Takeaway 5).
* Attention head split/merge is performed through strided batched-GEMM
  views rather than explicit transpose copies, as optimized Transformer
  implementations do.
* Linear-layer bias additions ride in the GEMM epilogue; bias *gradients*
  are separate reduction kernels, as in real frameworks.
"""

from __future__ import annotations

import functools
import threading
from typing import Sequence

import numpy as np

from repro.config import BertConfig, Precision, TrainingConfig
from repro.obs import metrics, spans
from repro.ops.base import (AccessPattern, Component, DType, Kernel, OpClass,
                            Phase, Region, lanes_any)
from repro.ops.elementwise import (dropout_backward, dropout_forward,
                                   elementwise, gelu_kernels, residual_add)
from repro.ops.gemm import (GemmShape, attention_output_gemms,
                            attention_score_gemms, linear_layer_gemms)
from repro.ops.reduction import layernorm_kernels, reduction, softmax_kernels
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.parameters import bert_parameter_inventory
from repro.trace.passes import point_pipeline


def _activation_dtype(training: TrainingConfig) -> DType:
    """FWD/BWD tensor dtype for the configured precision."""
    return DType.FP32 if training.precision is Precision.FP32 else DType.FP16


def _gemm_kernel(name: str, shape: GemmShape, *, dtype: DType, phase: Phase,
                 region: Region, component: Component = Component.TRANSFORMER,
                 layer_index: int | None = None) -> Kernel:
    """Wrap a GEMM shape into a kernel record."""
    # Lane-array batch counts are uniform in batched-ness within a stamp
    # family (repro.grid groups points on B*h > 1), so any-lane is exact.
    op_class = (OpClass.BATCHED_GEMM if lanes_any(shape.batch > 1)
                else OpClass.GEMM)
    return Kernel(
        name=name, op_class=op_class, phase=phase, component=component,
        region=region, flops=shape.flops,
        bytes_read=shape.bytes_read(dtype),
        bytes_written=shape.bytes_written(dtype),
        dtype=dtype, access=AccessPattern.STREAMING,
        layer_index=layer_index, gemm=shape,
        n_elements=shape.m * shape.n * shape.batch,
    )


def _bias_grad_kernel(name: str, *, tokens: int, features: int, dtype: DType,
                      region: Region,
                      component: Component = Component.TRANSFORMER) -> Kernel:
    """Bias gradient: column reduction of a ``tokens x features`` tensor."""
    return reduction(name, n_elements=tokens * features, dtype=dtype,
                     phase=Phase.BACKWARD, component=component, region=region,
                     inputs=1, outputs=0, flops_per_element=1.0,
                     reduced_elements=features)


# --------------------------------------------------------------------------
# Table 2b shape catalogue
# --------------------------------------------------------------------------

def transformer_gemm_shapes(model: BertConfig, training: TrainingConfig,
                            slicing: int = 1) -> dict[str, dict[str, GemmShape]]:
    """All Table 2b GEMM shapes of one Transformer layer.

    Args:
        slicing: Megatron-style tensor-slicing ways ``m`` (Sec. 5.1).  The
            Q/K/V and FC-1 weights are split column-wise, the attention
            output and FC-2 weights row-wise, and the attention heads are
            divided among devices, so per-device GEMM dims shrink by ``m``
            exactly as Fig. 10 illustrates.

    Returns:
        Mapping ``operation -> {"fwd", "bwd_act", "bwd_wt"} -> GemmShape``
        for operations ``linear`` (Q/K/V projections), ``linear_out``,
        ``attn_score``, ``attn_output``, ``fc1`` and ``fc2``.
    """
    _validate_slicing(model, slicing)
    tokens = training.tokens_per_iteration
    batch_heads = training.batch_size * model.num_heads // slicing
    d, d_ff = model.d_model, model.d_ff
    return {
        "linear": linear_layer_gemms(d, d // slicing, tokens),
        "linear_out": linear_layer_gemms(d // slicing, d, tokens),
        "attn_score": attention_score_gemms(training.seq_len, model.d_head,
                                            batch_heads),
        "attn_output": attention_output_gemms(training.seq_len, model.d_head,
                                              batch_heads),
        "fc1": linear_layer_gemms(d, d_ff // slicing, tokens),
        "fc2": linear_layer_gemms(d_ff // slicing, d, tokens),
    }


def _validate_slicing(model: BertConfig, slicing: int) -> None:
    if slicing < 1:
        raise ValueError("slicing must be >= 1")
    if (model.num_heads % slicing or model.d_model % slicing
            or model.d_ff % slicing):
        raise ValueError(
            f"{slicing}-way tensor slicing does not divide the model "
            f"(h={model.num_heads}, d_model={model.d_model}, "
            f"d_ff={model.d_ff})")


# --------------------------------------------------------------------------
# Per-sublayer forward emitters
# --------------------------------------------------------------------------

def _addnorm_forward(name: str, *, tokens: int, d_model: int,
                     dtype: DType) -> list[Kernel]:
    """Dropout + residual connection + LayerNorm after a sublayer."""
    n = tokens * d_model
    kernels = dropout_forward(f"{name}.dropout", n_elements=n, dtype=dtype,
                              component=Component.TRANSFORMER,
                              region=Region.DR_RC_LN,
                              fusion_group=f"{name}.addnorm")
    kernels.append(residual_add(f"{name}.residual", n_elements=n, dtype=dtype,
                                phase=Phase.FORWARD,
                                component=Component.TRANSFORMER,
                                fusion_group=f"{name}.addnorm"))
    kernels.extend(layernorm_kernels(rows=tokens, row_len=d_model,
                                     dtype=dtype, phase=Phase.FORWARD,
                                     name_prefix=f"{name}.layernorm",
                                     fusion_group=f"{name}.addnorm"))
    return kernels


def attention_forward_kernels(model: BertConfig, training: TrainingConfig,
                              slicing: int = 1) -> list[Kernel]:
    """Forward kernels of the attention sublayer (Figs. 2c/2d, 5).

    With ``slicing > 1`` the kernels are one device's share under
    Megatron-style tensor slicing; the DR+RC+LN tail stays full-sized
    because those layers are replicated (Sec. 5.1).
    """
    dtype = _activation_dtype(training)
    shapes = transformer_gemm_shapes(model, training, slicing)
    batch, n = training.batch_size, training.seq_len
    heads = model.num_heads // slicing
    score_elements = batch * heads * n * n
    kernels = []

    for proj in ("q", "k", "v"):
        kernels.append(_gemm_kernel(f"attention.linear_{proj}.fwd",
                                    shapes["linear"]["fwd"], dtype=dtype,
                                    phase=Phase.FORWARD,
                                    region=Region.ATTENTION_LINEAR))

    kernels.append(_gemm_kernel("attention.score.fwd",
                                shapes["attn_score"]["fwd"], dtype=dtype,
                                phase=Phase.FORWARD,
                                region=Region.ATTENTION_BGEMM))

    # Scale by 1/sqrt(d_head), add the additive padding mask (broadcast over
    # heads), softmax, dropout — each its own kernel (Sec. 3.2.3).
    kernels.append(elementwise(
        "attention.scale.fwd", n_elements=score_elements, dtype=dtype,
        phase=Phase.FORWARD, component=Component.TRANSFORMER,
        region=Region.ATTENTION_SMDSM, inputs=1, outputs=1,
        flops_per_element=1.0, fusion_group="attention.smdsm"))
    kernels.append(elementwise(
        "attention.mask.fwd", n_elements=score_elements, dtype=dtype,
        phase=Phase.FORWARD, component=Component.TRANSFORMER,
        region=Region.ATTENTION_SMDSM, inputs=1, outputs=1,
        flops_per_element=1.0, fusion_group="attention.smdsm",
        extra_read_bytes=batch * n * n * dtype.bytes))
    kernels.extend(softmax_kernels(rows=batch * heads * n, row_len=n,
                                   dtype=dtype, phase=Phase.FORWARD,
                                   name_prefix="attention.softmax",
                                   fusion_group="attention.smdsm"))
    kernels.extend(dropout_forward(
        "attention.score_dropout", n_elements=score_elements, dtype=dtype,
        component=Component.TRANSFORMER, region=Region.ATTENTION_SMDSM,
        fusion_group="attention.smdsm"))

    kernels.append(_gemm_kernel("attention.context.fwd",
                                shapes["attn_output"]["fwd"], dtype=dtype,
                                phase=Phase.FORWARD,
                                region=Region.ATTENTION_BGEMM))
    kernels.append(_gemm_kernel("attention.linear_out.fwd",
                                shapes["linear_out"]["fwd"], dtype=dtype,
                                phase=Phase.FORWARD,
                                region=Region.ATTENTION_LINEAR))

    kernels.extend(_addnorm_forward("attention.post",
                                    tokens=training.tokens_per_iteration,
                                    d_model=model.d_model, dtype=dtype))
    return kernels


def feedforward_forward_kernels(model: BertConfig, training: TrainingConfig,
                                slicing: int = 1) -> list[Kernel]:
    """Forward kernels of the FC (feed-forward) sublayer."""
    dtype = _activation_dtype(training)
    shapes = transformer_gemm_shapes(model, training, slicing)
    tokens = training.tokens_per_iteration
    intermediate = tokens * model.d_ff // slicing
    kernels = [
        _gemm_kernel("ffn.fc1.fwd", shapes["fc1"]["fwd"], dtype=dtype,
                     phase=Phase.FORWARD, region=Region.FC_GEMM),
    ]
    kernels.extend(gelu_kernels(n_elements=intermediate, dtype=dtype,
                                phase=Phase.FORWARD, name_prefix="ffn.gelu",
                                fusion_group="ffn.gelu"))
    kernels.append(_gemm_kernel("ffn.fc2.fwd", shapes["fc2"]["fwd"],
                                dtype=dtype, phase=Phase.FORWARD,
                                region=Region.FC_GEMM))
    kernels.extend(_addnorm_forward("ffn.post", tokens=tokens,
                                    d_model=model.d_model, dtype=dtype))
    return kernels


def transformer_layer_forward_kernels(model: BertConfig,
                                      training: TrainingConfig,
                                      slicing: int = 1) -> list[Kernel]:
    """All forward kernels of one Transformer encoder layer."""
    return (attention_forward_kernels(model, training, slicing)
            + feedforward_forward_kernels(model, training, slicing))


# --------------------------------------------------------------------------
# Per-sublayer backward emitters
# --------------------------------------------------------------------------

def _addnorm_backward(name: str, *, tokens: int, d_model: int,
                      dtype: DType) -> list[Kernel]:
    """Backward of LayerNorm + residual + dropout (reverse order)."""
    n = tokens * d_model
    kernels = layernorm_kernels(rows=tokens, row_len=d_model, dtype=dtype,
                                phase=Phase.BACKWARD,
                                name_prefix=f"{name}.layernorm",
                                fusion_group=f"{name}.addnorm")
    kernels.extend(dropout_backward(f"{name}.dropout", n_elements=n,
                                    dtype=dtype,
                                    component=Component.TRANSFORMER,
                                    region=Region.DR_RC_LN,
                                    fusion_group=f"{name}.addnorm"))
    return kernels


def _residual_accumulate(name: str, *, tokens: int, d_model: int,
                         dtype: DType) -> Kernel:
    """Gradient accumulation where the residual branch rejoins the trunk."""
    return residual_add(name, n_elements=tokens * d_model, dtype=dtype,
                        phase=Phase.BACKWARD, component=Component.TRANSFORMER)


def _linear_backward(name: str, shapes: dict[str, GemmShape], *,
                     tokens: int, d_out: int, dtype: DType,
                     region: Region) -> list[Kernel]:
    """Backward of a dense layer: two GEMMs plus the bias-grad reduction."""
    return [
        _gemm_kernel(f"{name}.bwd_act", shapes["bwd_act"], dtype=dtype,
                     phase=Phase.BACKWARD, region=region),
        _gemm_kernel(f"{name}.bwd_wt", shapes["bwd_wt"], dtype=dtype,
                     phase=Phase.BACKWARD, region=region),
        _bias_grad_kernel(f"{name}.bias_grad", tokens=tokens, features=d_out,
                          dtype=dtype, region=region),
    ]


def feedforward_backward_kernels(model: BertConfig, training: TrainingConfig,
                                 slicing: int = 1) -> list[Kernel]:
    """Backward kernels of the FC sublayer (reverse of forward)."""
    dtype = _activation_dtype(training)
    shapes = transformer_gemm_shapes(model, training, slicing)
    tokens = training.tokens_per_iteration
    d_ff = model.d_ff // slicing
    kernels = _addnorm_backward("ffn.post", tokens=tokens,
                                d_model=model.d_model, dtype=dtype)
    kernels.extend(_linear_backward("ffn.fc2", shapes["fc2"], tokens=tokens,
                                    d_out=model.d_model, dtype=dtype,
                                    region=Region.FC_GEMM))
    kernels.extend(gelu_kernels(n_elements=tokens * d_ff, dtype=dtype,
                                phase=Phase.BACKWARD, name_prefix="ffn.gelu",
                                fusion_group="ffn.gelu"))
    kernels.extend(_linear_backward("ffn.fc1", shapes["fc1"], tokens=tokens,
                                    d_out=d_ff, dtype=dtype,
                                    region=Region.FC_GEMM))
    kernels.append(_residual_accumulate("ffn.post.residual_grad",
                                        tokens=tokens, d_model=model.d_model,
                                        dtype=dtype))
    return kernels


def attention_backward_kernels(model: BertConfig, training: TrainingConfig,
                               slicing: int = 1) -> list[Kernel]:
    """Backward kernels of the attention sublayer (reverse of forward)."""
    dtype = _activation_dtype(training)
    shapes = transformer_gemm_shapes(model, training, slicing)
    tokens = training.tokens_per_iteration
    batch, n = training.batch_size, training.seq_len
    heads = model.num_heads // slicing
    score_elements = batch * heads * n * n

    kernels = _addnorm_backward("attention.post", tokens=tokens,
                                d_model=model.d_model, dtype=dtype)
    kernels.extend(_linear_backward("attention.linear_out",
                                    shapes["linear_out"],
                                    tokens=tokens, d_out=model.d_model,
                                    dtype=dtype,
                                    region=Region.ATTENTION_LINEAR))

    # Context BGEMM backward: gradients w.r.t. the score matrix and V.
    kernels.append(_gemm_kernel("attention.context.bwd_act",
                                shapes["attn_output"]["bwd_act"], dtype=dtype,
                                phase=Phase.BACKWARD,
                                region=Region.ATTENTION_BGEMM))
    kernels.append(_gemm_kernel("attention.context.bwd_wt",
                                shapes["attn_output"]["bwd_wt"], dtype=dtype,
                                phase=Phase.BACKWARD,
                                region=Region.ATTENTION_BGEMM))

    # Scale/mask/softmax/dropout backward.  The additive mask is constant, so
    # only dropout, softmax and the scale propagate gradients.
    kernels.extend(dropout_backward(
        "attention.score_dropout", n_elements=score_elements, dtype=dtype,
        component=Component.TRANSFORMER, region=Region.ATTENTION_SMDSM,
        fusion_group="attention.smdsm"))
    kernels.extend(softmax_kernels(rows=batch * heads * n, row_len=n,
                                   dtype=dtype, phase=Phase.BACKWARD,
                                   name_prefix="attention.softmax",
                                   fusion_group="attention.smdsm"))
    kernels.append(elementwise(
        "attention.scale.bwd", n_elements=score_elements, dtype=dtype,
        phase=Phase.BACKWARD, component=Component.TRANSFORMER,
        region=Region.ATTENTION_SMDSM, inputs=1, outputs=1,
        flops_per_element=1.0, fusion_group="attention.smdsm"))

    # Score BGEMM backward: gradients w.r.t. Q and K.
    kernels.append(_gemm_kernel("attention.score.bwd_act",
                                shapes["attn_score"]["bwd_act"], dtype=dtype,
                                phase=Phase.BACKWARD,
                                region=Region.ATTENTION_BGEMM))
    kernels.append(_gemm_kernel("attention.score.bwd_wt",
                                shapes["attn_score"]["bwd_wt"], dtype=dtype,
                                phase=Phase.BACKWARD,
                                region=Region.ATTENTION_BGEMM))

    for proj in ("v", "k", "q"):
        kernels.extend(_linear_backward(f"attention.linear_{proj}",
                                        shapes["linear"], tokens=tokens,
                                        d_out=model.d_model // slicing,
                                        dtype=dtype,
                                        region=Region.ATTENTION_LINEAR))
    kernels.append(_residual_accumulate("attention.post.residual_grad",
                                        tokens=tokens, d_model=model.d_model,
                                        dtype=dtype))
    return kernels


def transformer_layer_backward_kernels(model: BertConfig,
                                       training: TrainingConfig,
                                       slicing: int = 1) -> list[Kernel]:
    """All backward kernels of one Transformer encoder layer."""
    return (feedforward_backward_kernels(model, training, slicing)
            + attention_backward_kernels(model, training, slicing))


# --------------------------------------------------------------------------
# Embedding and output head
# --------------------------------------------------------------------------

def embedding_forward_kernels(model: BertConfig,
                              training: TrainingConfig) -> list[Kernel]:
    """Input embedding: three table gathers, LN and dropout."""
    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    n = tokens * model.d_model
    index_bytes = tokens * DType.INT64.bytes
    kernels = []
    for table in ("token", "position", "segment"):
        kernels.append(Kernel(
            name=f"embedding.{table}.gather", op_class=OpClass.GATHER_SCATTER,
            phase=Phase.FORWARD, component=Component.EMBEDDING,
            region=Region.EMBEDDING, flops=n,
            bytes_read=n * dtype.bytes + index_bytes,
            bytes_written=n * dtype.bytes, dtype=dtype,
            access=AccessPattern.IRREGULAR))
    kernels.extend(layernorm_kernels(
        rows=tokens, row_len=model.d_model, dtype=dtype, phase=Phase.FORWARD,
        component=Component.EMBEDDING, region=Region.EMBEDDING,
        name_prefix="embedding.layernorm"))
    kernels.extend(dropout_forward(
        "embedding.dropout", n_elements=n, dtype=dtype,
        component=Component.EMBEDDING, region=Region.EMBEDDING))
    return kernels


def embedding_backward_kernels(model: BertConfig,
                               training: TrainingConfig) -> list[Kernel]:
    """Embedding backward: dropout/LN backward and table scatter-adds."""
    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    n = tokens * model.d_model
    kernels = dropout_backward("embedding.dropout", n_elements=n, dtype=dtype,
                               component=Component.EMBEDDING,
                               region=Region.EMBEDDING)
    kernels.extend(layernorm_kernels(
        rows=tokens, row_len=model.d_model, dtype=dtype, phase=Phase.BACKWARD,
        component=Component.EMBEDDING, region=Region.EMBEDDING,
        name_prefix="embedding.layernorm"))
    for table in ("token", "position", "segment"):
        kernels.append(Kernel(
            name=f"embedding.{table}.scatter_add",
            op_class=OpClass.GATHER_SCATTER, phase=Phase.BACKWARD,
            component=Component.EMBEDDING, region=Region.EMBEDDING,
            flops=n, bytes_read=n * dtype.bytes,
            bytes_written=n * dtype.bytes, dtype=dtype,
            access=AccessPattern.IRREGULAR))
    return kernels


def output_head_forward_kernels(model: BertConfig,
                                training: TrainingConfig) -> list[Kernel]:
    """MLM head + NSP head + losses.

    Like the reference PyTorch pre-training implementations the paper
    profiles, every sequence position flows through the MLM transform and
    the vocabulary decoder (the loss then ignores unmasked positions), so
    the decoder GEMM is ``vocab x (n*B) x d_model``.  This is what makes the
    output layer a small-but-visible (3-7%) runtime slice (Obs. 1).
    """
    dtype = _activation_dtype(training)
    d, vocab = model.d_model, model.vocab_size
    tokens = training.tokens_per_iteration
    batch = training.batch_size
    kernels = []

    transform = linear_layer_gemms(d, d, tokens)
    kernels.append(_gemm_kernel("mlm.transform.fwd", transform["fwd"],
                                dtype=dtype, phase=Phase.FORWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.extend(gelu_kernels(n_elements=tokens * d, dtype=dtype,
                                phase=Phase.FORWARD, name_prefix="mlm.gelu",
                                component=Component.OUTPUT,
                                region=Region.OUTPUT))
    kernels.extend(layernorm_kernels(
        rows=tokens, row_len=d, dtype=dtype, phase=Phase.FORWARD,
        component=Component.OUTPUT, region=Region.OUTPUT,
        name_prefix="mlm.layernorm"))

    decoder = linear_layer_gemms(d, vocab, tokens)
    kernels.append(_gemm_kernel("mlm.decoder.fwd", decoder["fwd"],
                                dtype=dtype, phase=Phase.FORWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.extend(softmax_kernels(rows=tokens, row_len=vocab, dtype=dtype,
                                   phase=Phase.FORWARD, region=Region.LOSS,
                                   component=Component.OUTPUT,
                                   name_prefix="mlm.log_softmax"))

    # NSP head over the pooled [CLS] representation.
    pooler = linear_layer_gemms(d, d, batch)
    kernels.append(_gemm_kernel("nsp.pooler.fwd", pooler["fwd"], dtype=dtype,
                                phase=Phase.FORWARD, region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(elementwise("nsp.tanh.fwd", n_elements=batch * d,
                               dtype=dtype, phase=Phase.FORWARD,
                               component=Component.OUTPUT,
                               region=Region.OUTPUT, flops_per_element=8.0))
    nsp = linear_layer_gemms(d, 2, batch)
    kernels.append(_gemm_kernel("nsp.classifier.fwd", nsp["fwd"], dtype=dtype,
                                phase=Phase.FORWARD, region=Region.OUTPUT,
                                component=Component.OUTPUT))
    # NLL gathers one log-probability per masked position / NSP label.
    kernels.append(reduction(
        "loss.nll",
        n_elements=training.masked_positions + batch,
        dtype=dtype, phase=Phase.FORWARD, component=Component.OUTPUT,
        region=Region.LOSS, inputs=1, outputs=0, flops_per_element=1.0,
        reduced_elements=2))
    return kernels


def output_head_backward_kernels(model: BertConfig,
                                 training: TrainingConfig) -> list[Kernel]:
    """Backward of the output heads and loss."""
    dtype = _activation_dtype(training)
    d, vocab = model.d_model, model.vocab_size
    tokens = training.tokens_per_iteration
    batch = training.batch_size

    kernels = [elementwise(
        "loss.softmax_grad", n_elements=tokens * vocab, dtype=dtype,
        phase=Phase.BACKWARD, component=Component.OUTPUT, region=Region.LOSS,
        inputs=1, outputs=1, flops_per_element=2.0)]

    decoder = linear_layer_gemms(d, vocab, tokens)
    kernels.append(_gemm_kernel("mlm.decoder.bwd_act", decoder["bwd_act"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_gemm_kernel("mlm.decoder.bwd_wt", decoder["bwd_wt"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_bias_grad_kernel("mlm.decoder.bias_grad", tokens=tokens,
                                     features=vocab, dtype=dtype,
                                     region=Region.OUTPUT,
                                     component=Component.OUTPUT))

    kernels.extend(layernorm_kernels(
        rows=tokens, row_len=d, dtype=dtype, phase=Phase.BACKWARD,
        component=Component.OUTPUT, region=Region.OUTPUT,
        name_prefix="mlm.layernorm"))
    kernels.extend(gelu_kernels(n_elements=tokens * d, dtype=dtype,
                                phase=Phase.BACKWARD, name_prefix="mlm.gelu",
                                component=Component.OUTPUT,
                                region=Region.OUTPUT))

    transform = linear_layer_gemms(d, d, tokens)
    kernels.append(_gemm_kernel("mlm.transform.bwd_act",
                                transform["bwd_act"], dtype=dtype,
                                phase=Phase.BACKWARD, region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_gemm_kernel("mlm.transform.bwd_wt", transform["bwd_wt"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    nsp = linear_layer_gemms(d, 2, batch)
    kernels.append(_gemm_kernel("nsp.classifier.bwd_act", nsp["bwd_act"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_gemm_kernel("nsp.classifier.bwd_wt", nsp["bwd_wt"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(elementwise("nsp.tanh.bwd", n_elements=batch * d,
                               dtype=dtype, phase=Phase.BACKWARD,
                               component=Component.OUTPUT,
                               region=Region.OUTPUT, inputs=2,
                               flops_per_element=3.0))
    pooler = linear_layer_gemms(d, d, batch)
    kernels.append(_gemm_kernel("nsp.pooler.bwd_act", pooler["bwd_act"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_gemm_kernel("nsp.pooler.bwd_wt", pooler["bwd_wt"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    return kernels


# --------------------------------------------------------------------------
# Iteration layout
# --------------------------------------------------------------------------

def pretraining_sections(model: BertConfig, training: TrainingConfig, *,
                         slicing: int = 1,
                         inventory: Sequence | None = None
                         ) -> tuple[list[list[Kernel]], KernelTable]:
    """The five template sections of one pre-training iteration, and its
    optimizer tail.

    Embedding FWD, one encoder layer FWD, output head FWD + BWD, one
    encoder layer BWD, embedding BWD; then the update-phase table of
    :func:`~repro.optim.kernels.optimizer_kernels`.  ``training`` may also
    be a :class:`~repro.grid.lanes.LaneTraining`, whose numeric fields
    are per-point lanes (the optimizer tail has none).  ``slicing``
    shards the encoder layers and ``inventory`` (default: the whole
    model's) is what the optimizer updates.
    """
    # Imported lazily: repro.optim.kernels needs the parameter inventory
    # from this package, so a module-level import would be circular.
    from repro.optim.kernels import optimizer_kernels

    if inventory is None:
        inventory = bert_parameter_inventory(model)
    sections = [
        embedding_forward_kernels(model, training),
        transformer_layer_forward_kernels(model, training, slicing),
        output_head_forward_kernels(model, training)
        + output_head_backward_kernels(model, training),
        transformer_layer_backward_kernels(model, training, slicing),
        embedding_backward_kernels(model, training),
    ]
    return sections, optimizer_kernels(training.optimizer, inventory,
                                       precision=training.precision,
                                       fused=training.fuse_optimizer)


def iteration_layout(num_layers: int, sections: Sequence[Sequence[Kernel]]
                     ) -> tuple[list[Kernel], np.ndarray, np.ndarray]:
    """``(template, row ids, layer stamp)`` of one iteration's row order.

    ``sections`` are the five template sections of
    :func:`pretraining_sections` (any of them may be empty).  This is
    the one place that knows the iteration order: embedding FWD, encoder
    layers FWD (0..N-1), heads, encoder layers BWD (N-1..0), then the
    tail.  Each encoder layer is enumerated once and repeated
    ``num_layers`` times by row id; the layer stamp is ``-1`` outside
    the encoder sections.
    """
    sizes = [len(section) for section in sections]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    emb_f, layer_f, heads, layer_b, tail = (
        np.arange(bounds[i], bounds[i + 1]) for i in range(5))
    ids = np.concatenate([
        emb_f,
        np.tile(layer_f, num_layers),
        heads,
        np.tile(layer_b, num_layers),
        tail,
    ])
    layer = np.concatenate([
        np.full(sizes[0], -1, dtype=np.int32),
        np.repeat(np.arange(num_layers, dtype=np.int32), sizes[1]),
        np.full(sizes[2], -1, dtype=np.int32),
        np.repeat(np.arange(num_layers - 1, -1, -1, dtype=np.int32),
                  sizes[3]),
        np.full(sizes[4], -1, dtype=np.int32),
    ])
    template = [kernel for section in sections for kernel in section]
    return template, ids, layer


def stamp_layout(num_layers: int, sections: Sequence[Sequence[Kernel]],
                 optimizer: KernelTable | None = None
                 ) -> tuple[KernelTable, np.ndarray, np.ndarray]:
    """``(distinct rows, (P, R) row ids, (R,) layer stamp)`` of one point
    or P lanes, before any row is repeated.

    The distinct rows are the template pooled once (P point-major copies
    for lane-valued sections) followed by the ``optimizer`` tail, which
    has no lane values and so appears once.  Row ``r`` of point ``p`` is
    distinct row ``ids[p, r]``: :func:`iteration_layout`'s row ids
    offset into point ``p``'s copy, then the shared tail.
    """
    template, ids, layer = iteration_layout(num_layers, sections)
    table = KernelTable.from_kernels(template)
    points = len(table) // len(template)
    rows = np.arange(points)[:, None] * len(template) + ids
    if optimizer is not None:
        tail = len(table) + np.arange(len(optimizer))
        table = KernelTable.concat([table, optimizer])
        rows = np.hstack([rows, np.broadcast_to(tail, (points, len(tail)))])
        layer = np.concatenate([layer, optimizer.layer])
    return table, rows, layer


def lay_out(table: KernelTable, rows: np.ndarray,
            layer: np.ndarray) -> KernelTable:
    """``table``'s rows taken by the ``(P, R)`` row ids ``rows``, point
    after point, each point stamped with the ``(R,)`` layers."""
    return table.take(rows.ravel()).with_columns(
        layer=np.tile(layer, len(rows)))


def layout_table(num_layers: int, sections: Sequence[Sequence[Kernel]],
                 optimizer: KernelTable | None = None) -> KernelTable:
    """The one assembler of laid-out iteration tables:
    :func:`stamp_layout`'s distinct rows, :func:`lay_out`."""
    return lay_out(*stamp_layout(num_layers, sections, optimizer))


def build_iteration_trace(model: BertConfig,
                          training: TrainingConfig) -> Trace:
    """Kernel trace of one full training iteration.

    Order: embedding FWD, encoder layers FWD (0..N-1), output head FWD +
    loss, output head BWD, encoder layers BWD (N-1..0), embedding BWD,
    optimizer update (:func:`layout_table`).  Activation checkpointing,
    when enabled, is applied as a trace transform by the point's
    :func:`~repro.trace.passes.point_pipeline`.
    """
    with spans.span("trace.build_iteration", model=model.name,
                    point=training.label):
        table = layout_table(model.num_layers,
                             *pretraining_sections(model, training))
        table = point_pipeline(training).run_table(table, model, training)
        trace = Trace(model, training, table)
        spans.annotate(kernels=len(trace))
    return trace


# --------------------------------------------------------------------------
# Shared traces
# --------------------------------------------------------------------------

#: Distinct ``(model, training)`` traces kept by :func:`iteration_trace`.
#: ``repro run all`` reads nine; a registry-wide serve reads fourteen.
TRACE_MEMO_SIZE = 32

#: Lookups in the :func:`iteration_trace` memo, ``result=hit|miss``.
TRACE_MEMO = metrics.counter(
    "trace.memo", "iteration-trace memo lookups by result")

_lookup = threading.local()


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def _memoized_trace(model: BertConfig, training: TrainingConfig) -> Trace:
    _lookup.missed = True
    return build_iteration_trace(model, training)


def iteration_trace(model: BertConfig, training: TrainingConfig) -> Trace:
    """The shared iteration trace of one operating point.

    A trace depends only on ``(model, training)`` — not on the device —
    and is a frozen view, so every caller in the process can read the
    same one.  This returns it from a bounded in-process memo, building
    it with :func:`build_iteration_trace` on the first lookup.  Code that
    must time or compare a fresh build calls the builder directly, which
    builds on every call.
    """
    _lookup.missed = False
    trace = _memoized_trace(model, training)
    TRACE_MEMO.inc(result="miss" if _lookup.missed else "hit")
    return trace


def clear_iteration_traces() -> None:
    """Drop every memoized trace (the next lookup of each point builds)."""
    _memoized_trace.cache_clear()
