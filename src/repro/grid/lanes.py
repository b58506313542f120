"""Lane vectorization of training operating points.

The trace emitters in :mod:`repro.trace.bert_trace` compute every kernel
cost from a handful of :class:`~repro.config.TrainingConfig` sizes
(``batch_size``, ``seq_len``, ``tokens_per_iteration``,
``masked_positions``).  All of that arithmetic is plain ``+ * //`` over
integers, so it vectorizes unchanged over NumPy arrays:
:class:`LaneTraining` duck-types ``TrainingConfig`` with one **lane** per
grid point, and a single emitter walk produces template kernels whose
numeric fields are ``(P,)`` arrays — one trace build for P points.

This only works when every point in the batch emits the *same kernel
sequence* (same names, op classes, regions, fusion groups — only sizes
differ).  :func:`family_key` captures exactly the fields that can change
the sequence; the grid engine groups points by it and stamps one template
per family.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import BertConfig, TrainingConfig


def family_key(model: BertConfig, training: TrainingConfig) -> tuple:
    """Grouping key under which points share one stamped template.

    Within a family the emitted kernel sequence is structurally identical
    across points — only the numeric columns vary by lane:

    * the model fixes layer count and all feature dimensions;
    * precision selects the activation dtype and the mixed-precision
      optimizer cast kernels;
    * optimizer / ``fuse_optimizer`` select the update-phase kernel set;
    * activation checkpointing rewrites the trace per point;
    * ``B * h > 1`` pins the batched-GEMM classification of the attention
      GEMMs (``shape.batch > 1``), the one structural property that
      depends on the input size.
    """
    return (model, training.precision, training.optimizer,
            training.fuse_optimizer, training.activation_checkpointing,
            training.batch_size * model.num_heads > 1)


class LaneTraining:
    """Duck-typed :class:`TrainingConfig` whose sizes are lane arrays.

    Structural fields (precision, optimizer, fusing) come from the first
    point — the caller guarantees all points share them (one
    :func:`family_key` family).  Size fields are ``(P,)`` ``int64``
    arrays, one lane per point, in the order given.
    """

    def __init__(self, trainings: Sequence[TrainingConfig]):
        if not trainings:
            raise ValueError("LaneTraining needs at least one point")
        first = trainings[0]
        self.batch_size = np.array([t.batch_size for t in trainings],
                                   dtype=np.int64)
        self.seq_len = np.array([t.seq_len for t in trainings],
                                dtype=np.int64)
        self.masked_fraction = np.array([t.masked_fraction for t in trainings],
                                        dtype=np.float64)
        self.precision = first.precision
        self.optimizer = first.optimizer
        self.fuse_optimizer = first.fuse_optimizer

    @property
    def tokens_per_iteration(self) -> np.ndarray:
        """Per-lane token count ``B * n``."""
        return self.batch_size * self.seq_len

    @property
    def masked_positions(self) -> np.ndarray:
        """Per-lane MLM position count.

        ``np.rint`` rounds half to even exactly like the scalar
        ``int(round(...))`` in :meth:`TrainingConfig.masked_positions`,
        so lanes match the scalar path bit for bit.
        """
        tokens = self.tokens_per_iteration
        rounded = np.rint(tokens * self.masked_fraction).astype(np.int64)
        return np.maximum(1, rounded)
