"""Reference (pre-columnar) trace/profile implementations.

The columnar engine — layer-templated builds in
:mod:`repro.trace.bert_trace`, the batched timing of
:func:`repro.hw.timing.kernel_times`, the masked-reduction aggregation of
:class:`~repro.profiler.profiler.Profile` — is an *optimization*, not a
model change: every operating point must produce the same kernels with the
same times.  This module keeps the original implementations alive as the
oracle that claim is checked against:

* :func:`reference_iteration_trace` / :func:`reference_inference_trace` /
  :func:`reference_finetuning_trace` re-walk the model once per encoder
  layer into a plain kernel list, stamping each layer's index on its
  unattributed kernels, instead of stamping a layer-0 template; the list
  becomes a table once, at the end;
* :func:`reference_profile` times kernels one by one through the scalar
  :func:`repro.hw.timing.kernel_time`;
* :func:`reference_summarize` computes the headline fractions by predicate
  scans over the record list;
* :func:`reference_fuse_elementwise_chains`,
  :func:`reference_apply_checkpointing`,
  :func:`reference_apply_fused_attention`,
  :func:`reference_apply_windowed_attention` and
  :func:`reference_sliced_iteration_trace` are the original list-scan
  trace transforms, kept as the oracles the vectorized passes of
  :mod:`repro.trace.passes` (and the modules they live in) are pinned
  against.

``tests/test_profile_engine_golden.py`` and ``tests/test_passes.py`` run
both engines over the registry's operating points and require identical
kernels, bit-identical per-kernel times, and matching breakdown fractions.
``benchmarks/bench_profile_engine.py`` / ``benchmarks/bench_pass_pipeline.py``
use the same functions as the honest "before" timings.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.config import BertConfig, TrainingConfig
from repro.hw.device import DeviceModel
from repro.hw.timing import kernel_time
from repro.ops.base import Component, Kernel
from repro.profiler.profiler import Profile
from repro.trace.bert_trace import (embedding_backward_kernels,
                                    embedding_forward_kernels,
                                    output_head_backward_kernels,
                                    output_head_forward_kernels,
                                    transformer_layer_backward_kernels,
                                    transformer_layer_forward_kernels)
from repro.trace.builder import Trace
from repro.trace.kernel_table import KernelTable
from repro.trace.parameters import bert_parameter_inventory


def _at_layer(layer: int, kernels: Iterable[Kernel]) -> list[Kernel]:
    """Stamp ``layer`` on the kernels that carry no attribution yet."""
    return [k.with_layer(layer) if k.layer_index is None else k
            for k in kernels]


def _walked(model: BertConfig, training: TrainingConfig,
            kernels: list[Kernel]) -> Trace:
    """Wrap a walked kernel list as a trace."""
    return Trace(model, training, KernelTable.from_kernels(kernels))


def reference_iteration_trace(model: BertConfig,
                              training: TrainingConfig) -> Trace:
    """Pre-training iteration trace via the per-layer walk."""
    from repro.optim.kernels import optimizer_kernels

    kernels = embedding_forward_kernels(model, training)
    for layer in range(model.num_layers):
        kernels += _at_layer(
            layer, transformer_layer_forward_kernels(model, training))
    kernels += output_head_forward_kernels(model, training)
    kernels += output_head_backward_kernels(model, training)
    for layer in reversed(range(model.num_layers)):
        kernels += _at_layer(
            layer, transformer_layer_backward_kernels(model, training))
    kernels += embedding_backward_kernels(model, training)
    kernels += optimizer_kernels(training.optimizer,
                                 bert_parameter_inventory(model),
                                 precision=training.precision,
                                 fused=training.fuse_optimizer)

    trace = _walked(model, training, kernels)
    if training.activation_checkpointing:
        # The legacy list-scan transform, so the oracle stays independent
        # of the columnar CheckpointingPass it is checked against.
        trace = reference_apply_checkpointing(trace)
    return trace


def reference_inference_trace(model: BertConfig,
                              training: TrainingConfig) -> Trace:
    """Inference trace via the per-layer walk."""
    from repro.trace.variants import _strip_dropout

    kernels = _strip_dropout(embedding_forward_kernels(model, training))
    for layer in range(model.num_layers):
        kernels += _at_layer(layer, _strip_dropout(
            transformer_layer_forward_kernels(model, training)))
    kernels += _inference_head_kernels(model, training)
    return _walked(model, training, kernels)


def _inference_head_kernels(model: BertConfig,
                            training: TrainingConfig) -> list[Kernel]:
    """MLM-style projection head without the loss kernels."""
    from repro.ops.gemm import linear_layer_gemms
    from repro.ops.reduction import softmax_kernels
    from repro.trace.bert_trace import _activation_dtype, _gemm_kernel
    from repro.ops.base import Phase, Region

    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    d, vocab = model.d_model, model.vocab_size
    decoder = linear_layer_gemms(d, vocab, tokens)
    kernels = [_gemm_kernel("mlm.decoder.fwd", decoder["fwd"], dtype=dtype,
                            phase=Phase.FORWARD, region=Region.OUTPUT,
                            component=Component.OUTPUT)]
    kernels.extend(softmax_kernels(rows=tokens, row_len=vocab, dtype=dtype,
                                   phase=Phase.FORWARD, region=Region.LOSS,
                                   component=Component.OUTPUT,
                                   name_prefix="mlm.softmax"))
    return kernels


def reference_finetuning_trace(model: BertConfig, training: TrainingConfig,
                               num_labels: int = 2) -> Trace:
    """Fine-tuning trace via the per-layer walk."""
    from repro.optim.kernels import optimizer_kernels
    from repro.trace.variants import (finetuning_head_backward_kernels,
                                      finetuning_head_forward_kernels)

    kernels = embedding_forward_kernels(model, training)
    for layer in range(model.num_layers):
        kernels += _at_layer(
            layer, transformer_layer_forward_kernels(model, training))
    kernels += finetuning_head_forward_kernels(model, training, num_labels)
    kernels += finetuning_head_backward_kernels(model, training, num_labels)
    for layer in reversed(range(model.num_layers)):
        kernels += _at_layer(
            layer, transformer_layer_backward_kernels(model, training))
    kernels += embedding_backward_kernels(model, training)
    kernels += optimizer_kernels(training.optimizer,
                                 bert_parameter_inventory(model),
                                 precision=training.precision,
                                 fused=training.fuse_optimizer)
    return _walked(model, training, kernels)


def reference_profile(trace: Trace, device: DeviceModel) -> Profile:
    """Scalar per-kernel timing loop over the trace's kernel objects."""
    times = [kernel_time(k, device) for k in trace.kernels]
    return Profile(device, trace.table, np.array(times, dtype=np.float64))


def reference_sliced_iteration_trace(model: BertConfig,
                                     training: TrainingConfig,
                                     ways: int) -> Trace:
    """Tensor-sliced iteration trace via the per-layer walk."""
    from repro.distributed.tensor_slicing import sliced_parameter_inventory
    from repro.optim.kernels import optimizer_kernels

    kernels = embedding_forward_kernels(model, training)
    for layer in range(model.num_layers):
        kernels += _at_layer(layer, transformer_layer_forward_kernels(
            model, training, ways))
    kernels += output_head_forward_kernels(model, training)
    kernels += output_head_backward_kernels(model, training)
    for layer in reversed(range(model.num_layers)):
        kernels += _at_layer(layer, transformer_layer_backward_kernels(
            model, training, ways))
    kernels += embedding_backward_kernels(model, training)
    kernels += optimizer_kernels(training.optimizer,
                                 sliced_parameter_inventory(model, ways),
                                 precision=training.precision,
                                 fused=training.fuse_optimizer)
    return _walked(model, training, kernels)


# ---------------------------------------------------------------------------
# Legacy trace transforms: the pre-pass-pipeline list scans, verbatim.
# These are the oracles the vectorized KernelTable passes are pinned
# against bit-exactly; do not "improve" them.
# ---------------------------------------------------------------------------

def _chain_key(kernel: Kernel) -> tuple | None:
    """Grouping key for fusable kernels, or None if unfusable."""
    if kernel.fusion_group is None:
        return None
    if kernel.op_class.is_gemm:
        return None
    return (kernel.fusion_group, kernel.phase, kernel.layer_index)


def reference_fuse_elementwise_chains(trace: Trace) -> Trace:
    """Sequential scan-and-flush elementwise-chain fusion."""
    from repro.fusion.passes import fuse_chain

    fused: list[Kernel] = []
    pending: list[Kernel] = []
    pending_key: tuple | None = None

    def flush() -> None:
        nonlocal pending, pending_key
        if pending:
            fused.append(fuse_chain(pending))
            pending = []
            pending_key = None

    for kernel in trace.kernels:
        key = _chain_key(kernel)
        if key is None:
            flush()
            fused.append(kernel)
        elif key == pending_key:
            pending.append(kernel)
        else:
            flush()
            pending = [kernel]
            pending_key = key
    flush()
    return trace.replaced(fused)


def _as_recompute(kernel: Kernel) -> Kernel:
    """Re-tag a forward kernel as recomputation executed during backprop."""
    import dataclasses

    from repro.ops.base import Phase

    return dataclasses.replace(kernel, name=f"recompute.{kernel.name}",
                               phase=Phase.BACKWARD)


def reference_apply_checkpointing(trace: Trace,
                                  num_checkpoints: int | None = None
                                  ) -> Trace:
    """Per-kernel scan inserting segment-replay recomputation."""
    from repro.memoryplan.checkpointing import checkpoint_segments
    from repro.ops.base import Phase

    forward_by_layer: dict[int, list[Kernel]] = {}
    for kernel in trace.kernels:
        if (kernel.phase is Phase.FORWARD
                and kernel.component is Component.TRANSFORMER
                and kernel.layer_index is not None):
            forward_by_layer.setdefault(kernel.layer_index, []).append(kernel)

    if not forward_by_layer:
        return trace

    num_layers = max(forward_by_layer) + 1
    segments = checkpoint_segments(num_layers, num_checkpoints)
    segment_of = {}
    for segment in segments:
        for layer in segment:
            segment_of[layer] = segment

    rewritten: list[Kernel] = []
    replayed: set[int] = set()  # segment start layers already replayed
    for kernel in trace.kernels:
        is_layer_backward = (kernel.phase is Phase.BACKWARD
                             and kernel.component is Component.TRANSFORMER
                             and kernel.layer_index is not None)
        if is_layer_backward:
            segment = segment_of[kernel.layer_index]
            if segment.start not in replayed:
                replayed.add(segment.start)
                for layer in segment:
                    for fwd in forward_by_layer.get(layer, []):
                        rewritten.append(_as_recompute(fwd))
        rewritten.append(kernel)
    return trace.replaced(rewritten)


def _is_attention_op(kernel: Kernel) -> bool:
    from repro.ops.base import Region

    return (kernel.layer_index is not None
            and kernel.region in (Region.ATTENTION_BGEMM,
                                  Region.ATTENTION_SMDSM))


def reference_apply_fused_attention(trace: Trace) -> Trace:
    """Per-kernel scan swapping eager attention ops for fused kernels."""
    from repro.ops.base import Phase
    from repro.ops.fused_attention import (fused_attention_backward_kernel,
                                           fused_attention_forward_kernel)
    from repro.trace.bert_trace import _activation_dtype

    model = trace.model
    training = trace.training
    dtype = _activation_dtype(training)
    batch_heads = training.batch_size * model.num_heads

    def fused_for(layer: int, phase: Phase) -> Kernel:
        builder = (fused_attention_forward_kernel
                   if phase is Phase.FORWARD
                   else fused_attention_backward_kernel)
        return builder(seq_len=training.seq_len, d_head=model.d_head,
                       batch_heads=batch_heads, dtype=dtype,
                       layer_index=layer)

    rewritten: list[Kernel] = []
    emitted: set[tuple] = set()
    for kernel in trace.kernels:
        if not _is_attention_op(kernel):
            rewritten.append(kernel)
            continue
        key = (kernel.layer_index, kernel.phase)
        if key not in emitted:
            emitted.add(key)
            rewritten.append(fused_for(*key))
    return trace.replaced(rewritten)


def reference_apply_windowed_attention(trace: Trace,
                                       window=None) -> Trace:
    """Per-kernel scan swapping dense attention for block-local kernels."""
    from repro.ops.base import Phase
    from repro.ops.windowed_attention import (WindowConfig,
                                              windowed_attention_op_kernels)
    from repro.trace.bert_trace import _activation_dtype

    window = window or WindowConfig()
    model = trace.model
    training = trace.training
    dtype = _activation_dtype(training)
    batch_heads = training.batch_size * model.num_heads

    def kernels_for(layer: int, phase: Phase) -> list[Kernel]:
        block = windowed_attention_op_kernels(
            seq_len=training.seq_len, d_head=model.d_head,
            batch_heads=batch_heads, window=window, dtype=dtype,
            layer_index=layer)
        return [k for k in block if k.phase is phase]

    rewritten: list[Kernel] = []
    emitted: set[tuple] = set()
    for kernel in trace.kernels:
        if not _is_attention_op(kernel):
            rewritten.append(kernel)
            continue
        key = (kernel.layer_index, kernel.phase)
        if key not in emitted:
            emitted.add(key)
            rewritten.extend(kernels_for(*key))
    return trace.replaced(rewritten)


def reference_summarize(profile: Profile) -> dict[str, float]:
    """Headline fractions by predicate scans (the pre-columnar semantics)."""
    return {
        "total_time_s": profile.total_time,
        "transformer": profile.fraction_where(
            lambda k: k.component is Component.TRANSFORMER),
        "output": profile.fraction_where(
            lambda k: k.component is Component.OUTPUT),
        "embedding": profile.fraction_where(
            lambda k: k.component is Component.EMBEDDING),
        "optimizer": profile.fraction_where(
            lambda k: k.component is Component.OPTIMIZER),
        "gemm": profile.fraction_where(lambda k: k.op_class.is_gemm),
        "non_gemm": profile.fraction_where(
            lambda k: not k.op_class.is_gemm),
    }
