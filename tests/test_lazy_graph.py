"""Golden tests for the lazy tensor graph and its scheduler.

Two contracts pin lazy execution:

* **Execution.** Eager mode is the golden oracle: losses and gradients
  realized through the lazy scheduler match it bit for bit, and both
  modes report the same op stream to the recorder.
* **Scheduling.** The executed schedule of a BERT training step is
  deterministic and acyclic and never double-realizes; validation rejects
  the broken shapes.
"""

import numpy as np
import pytest

from repro.config import BERT_TINY, TrainingConfig
from repro.model import BertForPreTraining
from repro.tensor import lazy_mode, recording, tensor
from repro.tensor.schedule import (ScheduleError, execute, linearize,
                                   realize, validate_schedule)


def _tiny_batch():
    training = TrainingConfig(batch_size=2, seq_len=8)
    rng = np.random.default_rng(3)
    tokens = rng.integers(4, BERT_TINY.vocab_size,
                          size=(training.batch_size, training.seq_len))
    labels = np.full_like(tokens, -100)
    labels[:, 3] = 7
    nsp = np.zeros(training.batch_size, dtype=int)
    return tokens, labels, nsp


class TestLazyVsEagerGradients:
    """Eager execution is the golden oracle for the lazy scheduler."""

    def test_loss_and_gradients_bit_identical_fp32(self):
        tokens, labels, nsp = _tiny_batch()

        eager = BertForPreTraining(BERT_TINY, seed=0, dropout_p=0.0)
        eager_loss = eager.loss(tokens, labels, nsp)
        eager_loss.backward()

        lazy = BertForPreTraining(BERT_TINY, seed=0, dropout_p=0.0)
        with lazy_mode():
            lazy_loss = lazy.loss(tokens, labels, nsp)
            lazy_loss.backward()
        assert not lazy_loss.is_realized  # nothing ran at graph build

        assert np.array_equal(eager_loss.data, lazy_loss.data)
        eager_params = dict(eager.named_parameters())
        for name, param in lazy.named_parameters():
            expected = eager_params[name].grad
            got = param.grad
            assert got is not None, name
            assert np.array_equal(expected, got), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float16],
                             ids=["fp32", "fp16"])
    def test_tensor_computation_matches_eager(self, dtype):
        rng = np.random.default_rng(7)
        a_data = rng.standard_normal((4, 6)).astype(dtype)
        b_data = rng.standard_normal((6, 3)).astype(dtype)

        def run():
            a = tensor(a_data, requires_grad=True, dtype=dtype)
            b = tensor(b_data, requires_grad=True, dtype=dtype)
            out = (a.matmul(b) * 2.0).sum()
            out.backward()
            return out.data.copy(), a.grad.copy(), b.grad.copy()

        eager_out, eager_ga, eager_gb = run()
        with lazy_mode():
            lazy_out, lazy_ga, lazy_gb = run()

        assert np.array_equal(eager_out, lazy_out)
        assert np.array_equal(eager_ga, lazy_ga)
        assert np.array_equal(eager_gb, lazy_gb)


class TestScheduleValidation:
    """Acyclicity, determinism, and the no-double-realize guarantee."""

    @staticmethod
    def _roots():
        """Loss and gradient nodes of one lazy BERT-tiny training step."""
        model = BertForPreTraining(BERT_TINY, seed=0, dropout_p=0.0)
        with lazy_mode():
            loss = model.loss(*_tiny_batch())
            loss.backward()
        grads = [param._grad for _, param in model.named_parameters()]
        return [loss._lazy] + [g._lazy for g in grads if g is not None]

    def _schedule(self):
        return linearize(self._roots())

    def test_executed_schedule_validates(self):
        validate_schedule(self._schedule())

    def test_linearize_is_deterministic(self):
        roots = self._roots()
        schedule = linearize(roots)
        assert linearize(roots) == schedule
        # Two identical programs build identical schedules.
        assert ([node.kind for node in self._schedule()]
                == [node.kind for node in schedule])

    def test_shuffled_schedule_rejected(self):
        shuffled = self._schedule()
        shuffled[10], shuffled[40] = shuffled[40], shuffled[10]
        with pytest.raises(ScheduleError):
            validate_schedule(shuffled)

    def test_duplicate_item_rejected(self):
        schedule = self._schedule()
        broken = schedule + [schedule[-1]]
        with pytest.raises(ScheduleError, match="twice"):
            validate_schedule(broken)

    def test_missing_source_rejected(self):
        # Drop an early item another item depends on.
        broken = self._schedule()[1:]
        with pytest.raises(ScheduleError):
            validate_schedule(broken)

    def test_double_realize_raises(self):
        node = self._schedule()[0]
        execute(node)
        with pytest.raises(ScheduleError, match="double realize"):
            execute(node)

    def test_no_double_realize_across_full_run(self):
        roots = self._roots()
        schedule = linearize(roots)
        report = realize(roots, report=True)
        assert report.executed == schedule
        assert report.freed > 0
        assert report.peak_live_bytes > 0
        # The terminal node stays realized (nothing consumed it) and is
        # never re-executed: linearize treats it as data, not work.
        terminal = schedule[-1]
        assert terminal.realized is not None
        again = realize([terminal], report=True)
        assert again.executed == []


class TestRecordingSemantics:
    """Record at realize, not at graph build; tokens detach under nesting."""

    def test_no_records_at_graph_build(self):
        with recording.capture() as ops:
            with lazy_mode():
                a = tensor(np.ones((2, 3), dtype=np.float32))
                b = tensor(np.ones((3, 4), dtype=np.float32))
                out = a.matmul(b).sum()
                assert ops == []  # graph build executed nothing
            assert ops == []
            out.realize()
        kinds = [r.kind for r in ops]
        assert "matmul" in kinds and "sum" in kinds

    def test_eager_and_lazy_captures_identical(self):
        def run():
            a = tensor(np.full((2, 3), 2.0, dtype=np.float32))
            b = tensor(np.full((3, 4), 3.0, dtype=np.float32))
            return (a.matmul(b) + 1.0).sum()

        with recording.capture() as eager_ops:
            run()
        with recording.capture() as lazy_ops:
            with lazy_mode():
                run().realize()
        assert [(r.kind, r.shapes, r.dtype, r.out_shape)
                for r in eager_ops] == \
               [(r.kind, r.shapes, r.dtype, r.out_shape)
                for r in lazy_ops]

    def test_records_carry_dtype_and_out_shape(self):
        with recording.capture() as ops:
            a = tensor(np.ones((2, 3), dtype=np.float32))
            b = tensor(np.ones((3, 4), dtype=np.float32))
            a.matmul(b)
        (record,) = recording.matmuls(ops)
        assert record.dtype == "float32"
        assert record.out_shape == (2, 4)

    def test_detach_is_nesting_safe(self):
        outer: list = []
        inner: list = []
        outer_token = recording.attach(outer)
        inner_token = recording.attach(inner)
        recording.record("op1", (1,))
        # Detach the *outer* capture first: inner must keep recording.
        recording.detach(outer_token)
        recording.record("op2", (2,))
        recording.detach(inner_token)
        recording.record("op3", (3,))  # no sinks left: dropped

        assert [r.kind for r in outer] == ["op1"]
        assert [r.kind for r in inner] == ["op1", "op2"]
        # Detach is idempotent.
        recording.detach(outer_token)
        recording.detach(inner_token)
