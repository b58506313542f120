"""Tests for the executable optimizers and their kernel emission."""

import functools

import numpy as np
import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision
from repro.experiments import fig12
from repro.hw.device import default_device
from repro.ops.base import Component, DType, Kernel, Region
from repro.optim import MULTI_TENSOR_BATCH, Adam, Lamb, Sgd, optimizer_kernels
from repro.tensor.module import Parameter
from repro.trace.kernel_table import code_of
from repro.trace.parameters import bert_parameter_inventory


def quadratic_params(seed=0, n=16):
    rng = np.random.default_rng(seed)
    return Parameter(rng.normal(size=n).astype(np.float32), name="p")


def minimize(optimizer_cls, steps=200, **kwargs):
    """Drive ||p||^2 toward zero; return trajectory of losses."""
    param = quadratic_params()
    opt = optimizer_cls([param], **kwargs)
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        param.grad = 2.0 * param.data  # d/dp ||p||^2
        losses.append(float((param.data ** 2).sum()))
        opt.step()
    return losses


class TestNumericOptimizers:
    @pytest.mark.parametrize("cls,kwargs", [
        (Adam, {"lr": 0.05}),
        (Lamb, {"lr": 0.05, "weight_decay": 0.0}),
        (Sgd, {"lr": 0.01, "momentum": 0.9}),
    ])
    def test_minimizes_quadratic(self, cls, kwargs):
        losses = minimize(cls, **kwargs)
        assert losses[-1] < 0.01 * losses[0]

    def test_step_skips_missing_grads(self):
        p = quadratic_params()
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, before)

    def test_adam_bias_correction_first_step(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        opt = Adam([p], lr=0.1, eps=0.0)
        p.grad = np.full(4, 3.0, dtype=np.float32)
        opt.step()
        # With bias correction the first step is exactly -lr * sign(g).
        np.testing.assert_allclose(p.data, -0.1 * np.ones(4), rtol=1e-5)

    def test_lamb_trust_ratio_scales_step(self):
        # Two params with identical gradients but different magnitudes:
        # the larger parameter takes a proportionally larger step.
        small = Parameter(np.full(8, 0.1, dtype=np.float32))
        large = Parameter(np.full(8, 10.0, dtype=np.float32))
        opt = Lamb([small, large], lr=0.01, weight_decay=0.0,
                   clip_global_norm=None, trust_clip=1e9)
        small.grad = np.full(8, 1.0, dtype=np.float32)
        large.grad = np.full(8, 1.0, dtype=np.float32)
        small_before, large_before = small.data.copy(), large.data.copy()
        opt.step()
        step_small = np.abs(small.data - small_before).mean()
        step_large = np.abs(large.data - large_before).mean()
        assert step_large == pytest.approx(100 * step_small, rel=1e-3)

    def test_lamb_global_norm_clipping(self):
        p = Parameter(np.ones(4, dtype=np.float32))
        opt = Lamb([p], lr=0.1, clip_global_norm=1.0)
        p.grad = np.full(4, 100.0, dtype=np.float32)
        opt.step()
        assert opt._grad_scale == pytest.approx(1.0 / 200.0)

    def test_global_grad_norm(self):
        p1 = Parameter(np.zeros(3, dtype=np.float32))
        p2 = Parameter(np.zeros(4, dtype=np.float32))
        opt = Sgd([p1, p2], lr=0.1)
        p1.grad = np.full(3, 2.0, dtype=np.float32)
        p2.grad = np.full(4, 1.0, dtype=np.float32)
        assert opt.global_grad_norm() == pytest.approx(np.sqrt(16.0))

    def test_invalid_hyperparameters_rejected(self):
        p = quadratic_params()
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.5, 0.9))
        with pytest.raises(ValueError):
            Sgd([p], momentum=1.5)
        with pytest.raises(ValueError):
            Lamb([])


lamb_kernels = functools.partial(optimizer_kernels, "lamb")
adam_kernels = functools.partial(optimizer_kernels, "adam")
sgd_kernels = functools.partial(optimizer_kernels, "sgd")


class TestOptimizerKernels:
    @pytest.fixture(scope="class")
    def inventory(self):
        return bert_parameter_inventory(BERT_LARGE)

    def test_lamb_stage1_reads_four_times_model(self, inventory):
        # Takeaway 7.
        table = lamb_kernels(inventory, fused=True)
        params = sum(t.n_elements for t in inventory)
        stage1 = table.mask(region=Region.OPT_STAGE1)
        assert table.bytes_read[stage1].sum() == 4 * params * 4

    def test_lamb_fused_kernel_count(self, inventory):
        table = lamb_kernels(inventory, fused=True)
        groups = BERT_LARGE.num_layers + 2
        assert len(table) == 1 + 2 * groups  # norm + stage1/2 per group

    def test_lamb_has_global_norm_first(self, inventory):
        first = lamb_kernels(inventory, fused=True).kernel(0)
        assert first.region is Region.OPT_NORM
        assert first.bytes_read == sum(t.n_elements for t in inventory) * 4

    def test_unfused_lamb_many_more_kernels(self, inventory):
        fused = lamb_kernels(inventory, fused=True)
        unfused = lamb_kernels(inventory, fused=False)
        assert len(unfused) > 50 * len(fused)

    def test_mixed_precision_adds_cast_kernels(self, inventory):
        fp32 = lamb_kernels(inventory, precision=Precision.FP32)
        mixed = lamb_kernels(inventory, precision=Precision.MIXED)
        assert len(mixed) == len(fp32) + 2
        assert mixed.name_contains("cast").sum() == 2
        # LAMB stages themselves are identical (updates stay FP32).
        assert (mixed.dtype == code_of(DType.FP32)).all()

    def test_adam_fused_batches(self, inventory):
        table = adam_kernels(inventory, fused=True)
        expected = -(-len(inventory) // MULTI_TENSOR_BATCH)
        assert len(table) == expected

    def test_adam_kernel_count_ratio_near_250(self, inventory):
        # Fig. 12a.
        fused = adam_kernels(inventory, fused=True)
        unfused = adam_kernels(inventory, fused=False)
        assert 150 <= len(unfused) / len(fused) <= 350

    def test_adam_traffic_ratio_in_band(self, inventory):
        fused = adam_kernels(inventory, fused=True)
        unfused = adam_kernels(inventory, fused=False)
        ratio = unfused.bytes_total.sum() / fused.bytes_total.sum()
        assert 5.0 <= ratio <= 9.0

    def test_sgd_fused_single_kernel(self, inventory):
        assert len(sgd_kernels(inventory, fused=True)) == 1

    def test_dispatch(self, inventory):
        tiny = bert_parameter_inventory(BERT_TINY)
        for name in ("lamb", "adam", "sgd"):
            assert optimizer_kernels(name, tiny)
        with pytest.raises(ValueError):
            optimizer_kernels("adagrad", tiny)

    def test_all_optimizer_kernels_attributed(self, inventory):
        for k in lamb_kernels(inventory).to_kernels():
            assert k.component is Component.OPTIMIZER


def test_optimizer_emission_builds_no_kernel_objects(monkeypatch):
    """The update phase and the Fig. 12a Adam study are column
    arithmetic: no :class:`Kernel` is constructed on their path."""
    def refuse(self):
        raise AssertionError(f"Kernel object built: {self.name}")

    monkeypatch.setattr(Kernel, "__post_init__", refuse)
    inventory = bert_parameter_inventory(BERT_LARGE)
    for name in ("lamb", "adam", "sgd"):
        for fused in (True, False):
            for precision in Precision:
                assert len(optimizer_kernels(name, inventory, fused=fused,
                                             precision=precision))
    assert fig12.adam_fusion_impact(BERT_LARGE,
                                    default_device()).kernels_before > 0
