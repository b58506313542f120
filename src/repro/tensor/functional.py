"""Neural-network functional ops built on the autograd Tensor.

Softmax, LayerNorm, GeLU, dropout, embedding lookup and the losses BERT
needs.  Where numerical stability matters (softmax, log-softmax) the ops
are implemented as dedicated primitives rather than compositions.  Every
primitive goes through :meth:`Tensor._op`, so the op recorder sees it.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    def compute(a: np.ndarray) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)

    def grad_compute(g: np.ndarray, o: np.ndarray) -> np.ndarray:
        dot = (g * o).sum(axis=axis, keepdims=True)
        return o * (g - dot)

    def backward(grad: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(Tensor._op(
                "softmax_bwd", (grad, out), grad_compute))
    out = Tensor._op("softmax", (x,), compute, backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    def compute(a: np.ndarray) -> np.ndarray:
        shifted = a - a.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        return shifted - log_sum

    def grad_compute(g: np.ndarray, o: np.ndarray) -> np.ndarray:
        soft = np.exp(o)
        return g - soft * g.sum(axis=axis, keepdims=True)

    def backward(grad: Tensor) -> None:
        if x.requires_grad:
            x._accumulate(Tensor._op(
                "log_softmax_bwd", (grad, out), grad_compute))
    out = Tensor._op("log_softmax", (x,), compute, backward)
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, exact erf form (paper Eq. 1)."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return x * 0.5 * ((x * inv_sqrt2).erf() + 1.0)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis with learnable gain and bias."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * ((variance + eps) ** -0.5)
    return normalized * gain + bias


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(keep)


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather from an embedding table with scatter-add backward."""
    indices = np.asarray(indices)

    def grad_compute(g: np.ndarray, t: np.ndarray) -> np.ndarray:
        full = np.zeros_like(t)
        np.add.at(full, indices.reshape(-1), g.reshape(-1, t.shape[-1]))
        return full

    def backward(grad: Tensor) -> None:
        if table.requires_grad:
            table._accumulate(Tensor._op(
                "scatter_add", (grad, table), grad_compute))
    return Tensor._op("gather", (table,), lambda t: t[indices], backward,
                      record_shapes=(table.shape, indices.shape))


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: int | None = None) -> Tensor:
    """Mean cross-entropy over rows of ``logits``.

    Args:
        logits: ``(rows, classes)`` scores.
        targets: ``(rows,)`` integer class labels.
        ignore_index: rows with this label contribute nothing (BERT's MLM
            loss ignores unmasked positions this way).
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError("expected (rows, classes) logits and (rows,) targets")
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    if ignore_index is not None:
        valid = targets != ignore_index
        count = max(1, int(valid.sum()))
        safe_targets = np.where(valid, targets, 0)
        picked = log_probs[rows, safe_targets]
        weights = valid.astype(logits.dtype) / count
        return -(picked * Tensor(weights)).sum()
    picked = log_probs[rows, targets]
    return -picked.mean()


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Where ``mask`` is true, replace ``x`` by ``value`` (no grad there)."""
    mask = np.asarray(mask, dtype=bool)
    keep = Tensor((~mask).astype(x.dtype))
    fill = Tensor(mask.astype(x.dtype) * value)
    return x * keep + fill


def attention_mask_bias(padding_mask: np.ndarray,
                        dtype=np.float32) -> np.ndarray:
    """Additive attention bias from a ``(B, n)`` padding mask.

    Valid positions get 0, padded positions a large negative value, shaped
    ``(B, 1, 1, n)`` for broadcasting across heads and query positions —
    the mask-add kernel of the paper's Scale+Mask+DR+SM phase.
    """
    padding_mask = np.asarray(padding_mask, dtype=bool)
    bias = np.where(padding_mask, 0.0, -1e9).astype(dtype)
    return bias[:, None, None, :]


def causal_attention_bias(seq_len: int, dtype=np.float32) -> np.ndarray:
    """Additive causal (decoder) mask of shape ``(1, 1, n, n)``.

    Position ``i`` may attend only to positions ``<= i`` — the masked
    attention of decoder stacks like GPT (Sec. 2.3: the decoder "is similar
    to encoder except its attention layer is masked to consider only past
    tokens ... it only zeros certain matrix elements", so training cost is
    unchanged).
    """
    if seq_len < 1:
        raise ValueError("seq_len must be positive")
    future = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    bias = np.where(future, -1e9, 0.0).astype(dtype)
    return bias[None, None, :, :]


def combine_attention_biases(*biases: np.ndarray | None) -> np.ndarray | None:
    """Sum broadcastable additive attention biases, skipping ``None``."""
    present = [b for b in biases if b is not None]
    if not present:
        return None
    combined = present[0]
    for bias in present[1:]:
        combined = combined + bias
    return combined
