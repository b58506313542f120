"""Pins the eager tensor engine's numbers and op stream byte for byte.

One BERT-tiny pre-training loss + backward step is digested three ways:
the loss, every named parameter gradient, and the recorded
``(kind, shapes, dtype, out_shape)`` op stream.  A small fp16
``matmul * 2 -> sum -> backward`` program is digested the same way.
These digests were recorded before any change to how tensor ops are
dispatched, so an engine change that keeps them equal keeps every loss,
gradient and recorded kernel bit-identical.
"""

import hashlib

import numpy as np
import pytest

from repro.config import BERT_TINY, TrainingConfig
from repro.model import BertForPreTraining
from repro.tensor import recording, tensor


def _array_digest(named_arrays) -> str:
    h = hashlib.sha256()
    for name, array in named_arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{name}|{array.dtype.str}|{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _stream_digest(ops) -> str:
    h = hashlib.sha256()
    for r in ops:
        h.update(repr((r.kind, r.shapes, r.dtype, r.out_shape)).encode())
    return h.hexdigest()


def _tiny_batch():
    training = TrainingConfig(batch_size=2, seq_len=8)
    rng = np.random.default_rng(3)
    tokens = rng.integers(4, BERT_TINY.vocab_size,
                          size=(training.batch_size, training.seq_len))
    labels = np.full_like(tokens, -100)
    labels[:, 3] = 7
    labels[0, 5] = 11
    nsp = np.array([0, 1])
    padding = np.ones(tokens.shape, dtype=bool)
    padding[1, -2:] = False
    return tokens, labels, nsp, padding


def _bert_step(dropout_p: float) -> dict[str, str]:
    tokens, labels, nsp, padding = _tiny_batch()
    model = BertForPreTraining(BERT_TINY, seed=0, dropout_p=dropout_p)
    with recording.capture() as ops:
        loss = model.loss(tokens, labels, nsp, padding_mask=padding)
        loss.backward()
    grads = [(name, param.grad) for name, param in model.named_parameters()]
    assert all(grad is not None for _, grad in grads)
    return {"loss": _array_digest([("loss", loss.data)]),
            "grads": _array_digest(grads),
            "ops": _stream_digest(ops)}


def _fp16_step() -> dict[str, str]:
    rng = np.random.default_rng(7)
    a_data = rng.standard_normal((4, 6)).astype(np.float16)
    b_data = rng.standard_normal((6, 3)).astype(np.float16)
    with recording.capture() as ops:
        a = tensor(a_data, requires_grad=True, dtype=np.float16)
        b = tensor(b_data, requires_grad=True, dtype=np.float16)
        out = (a.matmul(b) * 2.0).sum()
        out.backward()
    return {"loss": _array_digest([("out", out.data)]),
            "grads": _array_digest([("a", a.grad), ("b", b.grad)]),
            "ops": _stream_digest(ops)}


STEPS = {
    "bert_tiny_no_dropout": lambda: _bert_step(0.0),
    "bert_tiny_dropout": lambda: _bert_step(0.1),
    "fp16_matmul_sum": _fp16_step,
}

DIGESTS = {
    "bert_tiny_dropout": {
        "loss": "40fa612c79a1aeb5ba937e4d753527f25dd50a0fbb51d06c7b9c33d690992118",
        "grads": "a0664981ddcf7ddf71c3fa0dae28a6b66d1701b7b9307f3bcb22fef80c3e6a95",
        "ops": "238883173596b832e33931ae1aed96e89123f89781219adfe3c22b076c699784",
    },
    "bert_tiny_no_dropout": {
        "loss": "276abfe622115981ee3b62228251d4cfe83d260f4a758fa791418cdbd0e5ef52",
        "grads": "ea2fbbc7660f9e74ecee35700e946b67d123606b87f7be14166b06397f9a1614",
        "ops": "55b543643c77fb40ff36af1af93a2406e9b50840581ae374cf111b292f0e02d2",
    },
    "fp16_matmul_sum": {
        "loss": "f765ad495e1b7c60d0e07e164f096cc758777366e77a7a610170bddf884ca3f7",
        "grads": "cbbf6fa5ccdb49432a92ad3b87d04b6ee73746acdd603fcc326e149bce3df8d5",
        "ops": "7cbc93f399bf24da8b4dc72279f409facce389f74cf3d2edf3e285122c04a5d2",
    },
}


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("part", ["loss", "grads", "ops"])
def test_eager_stream_pinned(step, part):
    assert STEPS[step]()[part] == DIGESTS[step][part]


def test_steps_are_repeatable():
    for step in STEPS.values():
        assert step() == step()
