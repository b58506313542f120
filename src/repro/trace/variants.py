"""Trace variants beyond pre-training: inference and fine-tuning (Sec. 7).

The paper argues its takeaways extend to both:

* **inference** runs only the forward pass — no backprop, no optimizer —
  so the in-layer breakdown matches pre-training's forward slice while the
  iteration-level LAMB bar disappears;
* **fine-tuning** swaps the MLM+NSP heads for a small task head (e.g.
  SQuAD's span classifier needs one thin GEMM), leaving the Transformer
  layers to dominate exactly as in pre-training.
"""

from __future__ import annotations

from repro.config import BertConfig, TrainingConfig
from repro.ops.base import Component, Kernel, Phase, Region
from repro.ops.gemm import linear_layer_gemms
from repro.ops.reduction import reduction, softmax_kernels
from repro.trace.bert_trace import (_activation_dtype, _bias_grad_kernel,
                                    _gemm_kernel, embedding_forward_kernels,
                                    layout_table, pretraining_sections,
                                    transformer_layer_forward_kernels)
from repro.trace.builder import Trace


def build_inference_trace(model: BertConfig,
                          training: TrainingConfig) -> Trace:
    """Kernel trace of one inference pass (forward only, no update).

    Dropout layers are identity at inference and emit no kernels; the
    output head still projects every position (encoder-as-a-service
    setting), so the vocabulary GEMM remains.
    """
    # MLM-style projection head without the loss kernels.
    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    d, vocab = model.d_model, model.vocab_size
    decoder = linear_layer_gemms(d, vocab, tokens)
    head = [_gemm_kernel("mlm.decoder.fwd", decoder["fwd"], dtype=dtype,
                         phase=Phase.FORWARD, region=Region.OUTPUT,
                         component=Component.OUTPUT)]
    head.extend(softmax_kernels(rows=tokens, row_len=vocab, dtype=dtype,
                                phase=Phase.FORWARD, region=Region.LOSS,
                                component=Component.OUTPUT,
                                name_prefix="mlm.softmax"))

    # Forward only: empty encoder-BWD and embedding-BWD sections, no
    # optimizer tail.
    table = layout_table(model.num_layers, [
        _strip_dropout(embedding_forward_kernels(model, training)),
        _strip_dropout(transformer_layer_forward_kernels(model, training)),
        head, [], []])
    return Trace(model, training, table)


def finetuning_head_forward_kernels(model: BertConfig,
                                    training: TrainingConfig,
                                    num_labels: int = 2) -> list[Kernel]:
    """A SQuAD/GLUE-style task head: one thin classifier GEMM + loss.

    "The output layer of SQUAD (Q&A) is simpler than tasks BERT is
    pre-trained for, requiring fewer GEMMs and thus making it a negligible
    component of SQUAD fine-tuning" (Sec. 7).
    """
    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    head = linear_layer_gemms(model.d_model, num_labels, tokens)
    kernels = [_gemm_kernel("task.classifier.fwd", head["fwd"], dtype=dtype,
                            phase=Phase.FORWARD, region=Region.OUTPUT,
                            component=Component.OUTPUT)]
    kernels.extend(softmax_kernels(rows=tokens, row_len=num_labels,
                                   dtype=dtype, phase=Phase.FORWARD,
                                   region=Region.LOSS,
                                   component=Component.OUTPUT,
                                   name_prefix="task.log_softmax"))
    kernels.append(reduction("task.loss.nll", n_elements=tokens, dtype=dtype,
                             phase=Phase.FORWARD, component=Component.OUTPUT,
                             region=Region.LOSS, inputs=1, outputs=0,
                             flops_per_element=1.0, reduced_elements=1))
    return kernels


def finetuning_head_backward_kernels(model: BertConfig,
                                     training: TrainingConfig,
                                     num_labels: int = 2) -> list[Kernel]:
    """Backward of the task head."""
    from repro.ops.elementwise import elementwise

    dtype = _activation_dtype(training)
    tokens = training.tokens_per_iteration
    head = linear_layer_gemms(model.d_model, num_labels, tokens)
    kernels = [elementwise(
        "task.loss.softmax_grad", n_elements=tokens * num_labels,
        dtype=dtype, phase=Phase.BACKWARD, component=Component.OUTPUT,
        region=Region.LOSS, inputs=1, outputs=1, flops_per_element=2.0)]
    kernels.append(_gemm_kernel("task.classifier.bwd_act", head["bwd_act"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_gemm_kernel("task.classifier.bwd_wt", head["bwd_wt"],
                                dtype=dtype, phase=Phase.BACKWARD,
                                region=Region.OUTPUT,
                                component=Component.OUTPUT))
    kernels.append(_bias_grad_kernel("task.classifier.bias_grad",
                                     tokens=tokens, features=num_labels,
                                     dtype=dtype, region=Region.OUTPUT,
                                     component=Component.OUTPUT))
    return kernels


def build_finetuning_trace(model: BertConfig, training: TrainingConfig,
                           num_labels: int = 2) -> Trace:
    """Kernel trace of one fine-tuning iteration.

    Same Transformer/embedding work and optimizer structure as
    pre-training; only the output head shrinks to the task classifier.
    """
    sections, optimizer = pretraining_sections(model, training)
    sections[2] = (  # the task head replaces the MLM + NSP heads
        finetuning_head_forward_kernels(model, training, num_labels)
        + finetuning_head_backward_kernels(model, training, num_labels))
    table = layout_table(model.num_layers, sections, optimizer)
    return Trace(model, training, table)


def _strip_dropout(kernels: list[Kernel]) -> list[Kernel]:
    """Remove dropout kernels (identity at inference)."""
    return [k for k in kernels if "dropout" not in k.name]
