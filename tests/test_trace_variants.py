"""Tests for inference/fine-tuning trace variants (Sec. 7)."""

import pytest

from repro.config import BERT_LARGE, Precision, training_point
from repro.experiments import sec7_modes
from repro.hw import mi100
from repro.ops.base import Component, Phase
from repro.profiler import profile_trace, summarize
from repro.trace import build_iteration_trace
from repro.trace.variants import (build_finetuning_trace,
                                  build_inference_trace)


@pytest.fixture(scope="module")
def training():
    return training_point(1, 32, Precision.FP32)


class TestInferenceTrace:
    def test_forward_only(self, training):
        trace = build_inference_trace(BERT_LARGE, training)
        assert all(k.phase is Phase.FORWARD for k in trace.kernels)

    def test_no_optimizer(self, training):
        trace = build_inference_trace(BERT_LARGE, training)
        assert not trace.select(component=Component.OPTIMIZER)

    def test_no_dropout_kernels(self, training):
        trace = build_inference_trace(BERT_LARGE, training)
        assert not [k for k in trace.kernels if "dropout" in k.name]

    def test_still_matrix_matrix_at_batch_one(self):
        # Sec. 8's point against matrix-vector accelerators: even
        # single-sequence inference runs GEMMs.
        trace = build_inference_trace(BERT_LARGE,
                                      training_point(1, 1, Precision.FP32))
        encoder = [k for k in trace.gemms()
                   if k.component is Component.TRANSFORMER]
        assert min(min(k.gemm.m, k.gemm.n, k.gemm.k)
                   for k in encoder) >= 64

    def test_roughly_one_third_of_training_time(self, training):
        # BWD ~ 2x FWD, so inference ~ (pretraining - update) / 3.
        device = mi100()
        train_trace = build_iteration_trace(BERT_LARGE, training)
        infer_trace = build_inference_trace(BERT_LARGE, training)
        train_profile = profile_trace(train_trace.kernels, device)
        infer_time = profile_trace(infer_trace.kernels, device).total_time
        fwdbwd = (train_profile.total_time
                  - train_profile.time_of(component=Component.OPTIMIZER))
        assert 2.4 < fwdbwd / infer_time < 3.6


class TestFinetuningTrace:
    def test_output_head_negligible(self, training):
        # Sec. 7: the SQuAD-style head is a negligible runtime component.
        trace = build_finetuning_trace(BERT_LARGE, training)
        stats = summarize(profile_trace(trace.kernels, mi100()))
        assert stats["output"] < 0.01
        assert stats["transformer"] > 0.80

    def test_same_encoder_work_as_pretraining(self, training):
        pretrain = build_iteration_trace(BERT_LARGE, training)
        finetune = build_finetuning_trace(BERT_LARGE, training)
        pre_flops = sum(k.flops for k in pretrain.select(
            component=Component.TRANSFORMER))
        fine_flops = sum(k.flops for k in finetune.select(
            component=Component.TRANSFORMER))
        assert fine_flops == pre_flops

    def test_optimizer_unchanged(self, training):
        pretrain = build_iteration_trace(BERT_LARGE, training)
        finetune = build_finetuning_trace(BERT_LARGE, training)
        assert (len(finetune.select(component=Component.OPTIMIZER))
                == len(pretrain.select(component=Component.OPTIMIZER)))

    def test_task_head_scales_with_labels(self, training):
        two = build_finetuning_trace(BERT_LARGE, training, num_labels=2)
        many = build_finetuning_trace(BERT_LARGE, training, num_labels=128)
        def head_flops(trace):
            return sum(k.flops for k in trace.select(
                component=Component.OUTPUT))
        assert head_flops(many) > head_flops(two)


class TestSec7Experiment:
    def test_mode_ordering(self):
        profiles = {p.mode: p for p in sec7_modes.run()}
        assert profiles["inference"].total_s < profiles["finetuning"].total_s
        assert profiles["inference"].optimizer == 0.0
        assert profiles["finetuning"].output < 0.01
        # Transformer-layer dominance holds in every mode (Obs. 1 / Sec. 7).
        for p in profiles.values():
            assert p.transformer > 0.75

    def test_render(self):
        out = sec7_modes.render(sec7_modes.run())
        assert "inference" in out and "finetuning" in out
