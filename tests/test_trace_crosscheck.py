"""Cross-validation: analytic kernel trace vs. the executable model.

The trace generator *claims* the network manifests as the GEMMs of
Table 2b.  These tests run the real NumPy model under the op recorder and
compare the multiset of executed forward matmuls against the analytic
trace's forward GEMM kernels — shape for shape (as FLOP counts, which are
orientation-invariant) and count for count: on BERT Tiny at one point, and
on generated small models and operating points (the strategies of
``tests/test_iteration_layout.py``).

Only the forward pass is cross-checked.  The recorder sees the matmuls
the model's forward code issues; the gradients of ``loss.backward()`` are
computed inside the autograd engine and record no matmul (BERT Tiny: 20
forward records, 0 backward), so the backward GEMMs stay pinned by the
closed forms of ``tests/test_iteration_layout.py`` alone.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import BERT_TINY, Precision, TrainingConfig
from repro.model import BertForPreTraining
from repro.ops.base import Phase
from repro.tensor import recording
from repro.trace.bert_trace import build_iteration_trace
from tests.test_iteration_layout import bert_configs, training_configs


def _executed_matmuls(config, training) -> list:
    """The matmuls one pre-training loss of the NumPy model executes."""
    model = BertForPreTraining(config, seed=0, dropout_p=0.0)
    rng = np.random.default_rng(1)
    tokens = rng.integers(4, config.vocab_size,
                          size=(training.batch_size, training.seq_len))
    labels = np.full_like(tokens, -100)
    labels[:, 5] = 7
    nsp = np.zeros(training.batch_size, dtype=int)

    with recording.capture() as ops:
        model.loss(tokens, labels, nsp)
    return recording.matmuls(ops)


@pytest.fixture(scope="module")
def setup():
    training = TrainingConfig(batch_size=3, seq_len=16)
    trace = build_iteration_trace(BERT_TINY, training)
    return training, trace, _executed_matmuls(BERT_TINY, training)


def _recorded_flops(matmuls) -> Counter:
    counts = Counter()
    for record in matmuls:
        m, n, k, batch = record.matmul_mnk()
        counts[2 * m * n * k * batch] += 1
    return counts


def _trace_forward_gemm_flops(trace) -> Counter:
    return Counter(k.flops for k in trace.gemms()
                   if k.phase is Phase.FORWARD)


class TestTraceMatchesExecution:
    def test_forward_gemm_flop_multisets_match(self, setup):
        _, trace, matmuls = setup
        assert _recorded_flops(matmuls) == _trace_forward_gemm_flops(trace)

    def test_forward_gemm_count_matches(self, setup):
        _, trace, matmuls = setup
        analytic = [k for k in trace.gemms() if k.phase is Phase.FORWARD]
        assert len(matmuls) == len(analytic)

    def test_per_layer_gemm_count(self, setup):
        training, trace, matmuls = setup
        # 8 matmuls per encoder layer + 4 in the heads.
        expected = 8 * BERT_TINY.num_layers + 4
        assert len(matmuls) == expected

    def test_attention_batched_gemms_recorded_with_batch(self, setup):
        training, _, matmuls = setup
        batch_heads = training.batch_size * BERT_TINY.num_heads
        batched = [r for r in matmuls if r.matmul_mnk()[3] == batch_heads]
        # Score and context products per layer.
        assert len(batched) == 2 * BERT_TINY.num_layers

    def test_recorded_dtypes_match_analytic_trace(self, setup):
        """Every executed matmul runs at the dtype the FP32 analytic trace
        declares for its forward GEMMs."""
        _, trace, matmuls = setup
        analytic = {k.dtype.value[0] for k in trace.gemms()
                    if k.phase is Phase.FORWARD}
        assert analytic == {"fp32"}
        assert {r.dtype for r in matmuls} == {"float32"}

    def test_recorded_out_shapes_cover_hidden_dim(self, setup):
        """Records carry output shapes; the QKV projections land on
        ``(B, n, d_model)``."""
        training, _, matmuls = setup
        hidden = (training.batch_size, training.seq_len,
                  BERT_TINY.d_model)
        assert any(r.out_shape == hidden for r in matmuls)

    def test_mixed_precision_trace_declares_fp16_gemms(self, setup):
        """The MIXED analytic trace switches its forward GEMMs to FP16
        while the FP32 trace stays FP32 — and the recorder distinguishes
        the precisions the same way when fp16 arrays actually execute."""
        training, _, _ = setup
        mixed = build_iteration_trace(
            BERT_TINY, TrainingConfig(batch_size=training.batch_size,
                                      seq_len=training.seq_len,
                                      precision=Precision.MIXED))
        assert {k.dtype.value[0] for k in mixed.gemms()
                if k.phase is Phase.FORWARD} == {"fp16"}

        from repro.tensor import tensor
        a = np.ones((2, 3), dtype=np.float16)
        b = np.ones((3, 4), dtype=np.float16)
        with recording.capture() as ops:
            tensor(a, dtype=np.float16).matmul(tensor(b, dtype=np.float16))
        (record,) = recording.matmuls(ops)
        assert record.dtype == "float16"

    def test_no_matrix_vector_products_at_batch_one(self):
        """Takeaway 5, executed: B=1 still runs matrix-matrix products in
        encoder layers."""
        model = BertForPreTraining(BERT_TINY, seed=0, dropout_p=0.0)
        tokens = np.random.default_rng(2).integers(
            4, BERT_TINY.vocab_size, size=(1, 16))
        with recording.capture() as ops:
            model.encode(tokens)
        for record in recording.matmuls(ops):
            m, n, k, _ = record.matmul_mnk()
            assert min(m, n, k) > 1, record


@given(config=bert_configs(), training=training_configs)
@settings(max_examples=15, deadline=None)
def test_generated_forward_gemm_flop_multisets_match(config, training):
    matmuls = _executed_matmuls(config, training)
    trace = build_iteration_trace(config, training)
    assert _recorded_flops(matmuls) == _trace_forward_gemm_flops(trace)
