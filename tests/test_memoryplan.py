"""Tests for activation checkpointing and memory footprint (Sec. 4)."""

import dataclasses

import pytest

from repro.config import (BERT_LARGE, BERT_TINY, Precision, TrainingConfig,
                          training_point)
from repro.memoryplan import (checkpoint_segments, layer_activation_bytes,
                              max_batch_size, recompute_overhead,
                              training_footprint)
from repro.ops.base import Component, Phase
from repro.trace import build_iteration_trace, build_pipeline


class TestSegments:
    def test_bert_large_default_is_four_by_six(self):
        segments = checkpoint_segments(24)
        assert len(segments) == 5  # round(sqrt(24)) = 5 checkpoints
        # The paper's setup: explicitly four checkpoints of six layers.
        four = checkpoint_segments(24, 4)
        assert len(four) == 4
        assert all(len(s) == 6 for s in four)

    def test_segments_cover_all_layers(self):
        for n, c in ((24, 4), (12, 3), (7, 2), (5, 5)):
            segments = checkpoint_segments(n, c)
            covered = [layer for s in segments for layer in s]
            assert covered == list(range(n))

    def test_more_checkpoints_than_layers_clamped(self):
        assert len(checkpoint_segments(3, 10)) == 3

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            checkpoint_segments(0)


class TestCheckpointTransform:
    @pytest.fixture(scope="class")
    def traces(self):
        training = training_point(1, 32, Precision.FP32)
        base = build_iteration_trace(BERT_LARGE, training)
        return base, build_pipeline("checkpointing:4").run(base)

    def test_kernel_overhead_near_paper_band(self, traces):
        base, ckpt = traces
        overhead = recompute_overhead(base, ckpt)
        # Paper: ~33% more kernels.
        assert 0.25 < overhead < 0.45

    def test_recompute_kernels_marked(self, traces):
        base, ckpt = traces
        recompute = [k for k in ckpt.kernels
                     if k.name.startswith("recompute.")]
        forward_encoder = [k for k in base.kernels
                           if k.phase is Phase.FORWARD
                           and k.component is Component.TRANSFORMER]
        # Every encoder forward kernel is replayed exactly once.
        assert len(recompute) == len(forward_encoder)
        assert all(k.phase is Phase.BACKWARD for k in recompute)

    def test_recompute_precedes_segment_backward(self, traces):
        _, ckpt = traces
        names = [k.name for k in ckpt.kernels]
        first_recompute = names.index(next(n for n in names
                                           if n.startswith("recompute.")))
        # Backward of the deepest layer starts after its recompute block.
        bwd_layer23 = next(i for i, k in enumerate(ckpt.kernels)
                           if k.phase is Phase.BACKWARD
                           and k.layer_index == 23
                           and not k.name.startswith("recompute."))
        assert first_recompute < bwd_layer23

    def test_optimizer_untouched(self, traces):
        base, ckpt = traces
        assert (len(base.select(component=Component.OPTIMIZER))
                == len(ckpt.select(component=Component.OPTIMIZER)))

    def test_config_flag_applies_transform(self):
        training = dataclasses.replace(training_point(1, 4, Precision.FP32),
                                       activation_checkpointing=True)
        base = build_iteration_trace(
            BERT_LARGE, training_point(1, 4, Precision.FP32))
        ckpt = build_iteration_trace(BERT_LARGE, training)
        assert len(ckpt) > len(base)

    def test_trace_without_layers_passthrough(self):
        base = build_iteration_trace(BERT_TINY,
                                     TrainingConfig(batch_size=2, seq_len=16))
        empty = base.replaced([k for k in base.kernels
                               if k.component is Component.OPTIMIZER])
        assert len(build_pipeline("checkpointing").run(empty)) == len(empty)


class TestFootprint:
    def test_checkpointing_cuts_activation_memory(self):
        training = training_point(1, 32, Precision.FP32)
        base = training_footprint(BERT_LARGE, training)
        ckpt = training_footprint(
            BERT_LARGE,
            dataclasses.replace(training, activation_checkpointing=True))
        assert ckpt.activations < 0.4 * base.activations
        # Weights/optimizer state unchanged.
        assert ckpt.weights == base.weights
        assert ckpt.optimizer_state == base.optimizer_state

    def test_activation_bytes_scale_with_tokens(self):
        small = layer_activation_bytes(BERT_LARGE,
                                       training_point(1, 4, Precision.FP32))
        large = layer_activation_bytes(BERT_LARGE,
                                       training_point(1, 8, Precision.FP32))
        assert large == pytest.approx(2 * small, rel=0.01)

    def test_mixed_precision_smaller_activations(self):
        fp32 = training_footprint(BERT_LARGE,
                                  training_point(1, 32, Precision.FP32))
        mp = training_footprint(BERT_LARGE,
                                training_point(1, 32, Precision.MIXED))
        assert mp.activations < fp32.activations
        # But MP carries an extra FP16 weight copy.
        assert mp.weights > fp32.weights

    def test_bert_large_fits_32gb_at_b32(self):
        footprint = training_footprint(BERT_LARGE,
                                       training_point(1, 32, Precision.FP32))
        assert footprint.fits(32.0)

    def test_total_is_sum_of_parts(self):
        f = training_footprint(BERT_TINY,
                               TrainingConfig(batch_size=2, seq_len=16))
        assert f.total == (f.weights + f.gradients + f.optimizer_state
                           + f.activations + f.workspace)

    def test_max_batch_size_monotone_in_capacity(self):
        training = training_point(1, 1, Precision.FP32)
        small = max_batch_size(BERT_LARGE, training, 16.0)
        large = max_batch_size(BERT_LARGE, training, 32.0)
        assert 0 < small < large

    def test_checkpointing_enables_larger_batch(self):
        # The whole point of Sec. 4.
        training = training_point(1, 1, Precision.FP32)
        ckpt = dataclasses.replace(training, activation_checkpointing=True)
        assert (max_batch_size(BERT_LARGE, ckpt, 32.0)
                > max_batch_size(BERT_LARGE, training, 32.0))

    def test_max_batch_size_zero_when_nothing_fits(self):
        training = training_point(1, 1, Precision.FP32)
        assert max_batch_size(BERT_LARGE, training, 0.1) == 0
