"""Analytic parameter inventory of a BERT model.

The optimizer kernel emission (:mod:`repro.optim.kernels`), the distributed
gradient-communication model and the memory-footprint estimator all need to
know *which* parameter tensors exist, their sizes, and which layer each
belongs to.  This module derives that inventory from a
:class:`~repro.config.BertConfig` without instantiating any arrays, and it
is cross-checked against the executable NumPy model in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.config import BertConfig
from repro.ops.base import Component


@dataclass(frozen=True)
class ParamTensor:
    """One trainable parameter tensor.

    Attributes:
        name: qualified name, e.g. ``"encoder.3.attention.query.weight"``.
        shape: tensor shape.
        component: network component the tensor belongs to.
        layer_index: encoder layer index, or ``None`` outside the encoder.
    """

    name: str
    shape: tuple[int, ...]
    component: Component
    layer_index: int | None = None

    @property
    def n_elements(self) -> int:
        return math.prod(self.shape)

    def bytes(self, element_bytes: int = 4) -> int:
        """Storage size at the given element width."""
        return self.n_elements * element_bytes


def encoder_layer_tensors(config: BertConfig, layer: int) -> list[ParamTensor]:
    """Parameter tensors of one Transformer encoder layer."""
    d, f = config.d_model, config.d_ff
    prefix = f"encoder.{layer}"

    def tensor(name: str, *shape: int) -> ParamTensor:
        return ParamTensor(name=f"{prefix}.{name}", shape=shape,
                           component=Component.TRANSFORMER, layer_index=layer)

    tensors = []
    for proj in ("query", "key", "value", "output"):
        tensors.append(tensor(f"attention.{proj}.weight", d, d))
        tensors.append(tensor(f"attention.{proj}.bias", d))
    tensors.append(tensor("attention.layernorm.gain", d))
    tensors.append(tensor("attention.layernorm.bias", d))
    tensors.append(tensor("ffn.fc1.weight", f, d))
    tensors.append(tensor("ffn.fc1.bias", f))
    tensors.append(tensor("ffn.fc2.weight", d, f))
    tensors.append(tensor("ffn.fc2.bias", d))
    tensors.append(tensor("ffn.layernorm.gain", d))
    tensors.append(tensor("ffn.layernorm.bias", d))
    return tensors


def embedding_tensors(config: BertConfig) -> list[ParamTensor]:
    """Token/position/segment embedding tables and their LayerNorm."""
    d = config.d_model

    def tensor(name: str, *shape: int) -> ParamTensor:
        return ParamTensor(name=f"embeddings.{name}", shape=shape,
                           component=Component.EMBEDDING)

    return [
        tensor("token.weight", config.vocab_size, d),
        tensor("position.weight", config.max_position, d),
        tensor("segment.weight", config.type_vocab_size, d),
        tensor("layernorm.gain", d),
        tensor("layernorm.bias", d),
    ]


def output_head_tensors(config: BertConfig) -> list[ParamTensor]:
    """MLM transform + decoder bias, pooler and NSP classifier.

    The MLM decoder weight is tied to the token embedding table and is not
    repeated here.
    """
    d = config.d_model

    def tensor(name: str, *shape: int) -> ParamTensor:
        return ParamTensor(name=f"heads.{name}", shape=shape,
                           component=Component.OUTPUT)

    return [
        tensor("mlm.transform.weight", d, d),
        tensor("mlm.transform.bias", d),
        tensor("mlm.layernorm.gain", d),
        tensor("mlm.layernorm.bias", d),
        tensor("mlm.decoder.bias", config.vocab_size),
        tensor("pooler.weight", d, d),
        tensor("pooler.bias", d),
        tensor("nsp.weight", 2, d),
        tensor("nsp.bias", 2),
    ]


@functools.lru_cache(maxsize=32)  # as many configs as TRACE_MEMO_SIZE
def bert_parameter_inventory(config: BertConfig) -> tuple[ParamTensor, ...]:
    """All trainable parameter tensors of the pre-training model, as one
    immutable tuple per config that every build of the model shares."""
    tensors = embedding_tensors(config)
    for layer in range(config.num_layers):
        tensors.extend(encoder_layer_tensors(config, layer))
    tensors.extend(output_head_tensors(config))
    return tuple(tensors)


def total_parameters(config: BertConfig) -> int:
    """Total parameter count from the inventory.

    Must equal :meth:`BertConfig.total_parameters`; the test suite enforces
    this.
    """
    return sum(t.n_elements for t in bert_parameter_inventory(config))


def group_by_layer(tensors) -> dict[str, list[ParamTensor]]:
    """Group tensors into the per-layer sets LAMB updates independently.

    LAMB "is executed independently for every model layer, each accessing
    the corresponding layer's data" (Sec. 2.4).  Embedding and output-head
    tensors form their own groups.
    """
    groups: dict[str, list[ParamTensor]] = {}
    for tensor in tensors:
        if tensor.layer_index is not None:
            key = f"encoder.{tensor.layer_index}"
        else:
            key = tensor.component.value
        groups.setdefault(key, []).append(tensor)
    return groups
