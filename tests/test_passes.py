"""Tests for the columnar pass pipeline (trace/passes.py and the ports).

Every transform family is pinned bit-exactly against the kernel digests
frozen in ``tests/golden/trace_digests.json``, composition order is
exercised both ways, and the PassManager's signature / debug-validation / provenance
contracts are covered alongside the satellite regressions (FusionImpact
zero guards, materialization keeping the table, pipeline-aware caching).
"""


import numpy as np
import pytest

from repro.config import (BERT_LARGE, BERT_TINY, Precision, training_point)
from repro.distributed import OptimizerShardPass, build_sliced_iteration_trace
from repro.fusion import (ElementwiseChainFusionPass, FusedAttentionPass,
                          WindowedAttentionPass)
from repro.fusion.passes import FusionImpact
from repro.memoryplan import CheckpointingPass
from repro.nmc import OptimizerOffloadPass, optimizer_workload
from repro.ops.base import Component
from repro.ops.windowed_attention import WindowConfig
from repro.trace import (PassManager, TracePass, available_passes,
                         build_iteration_trace, build_pipeline)
from tests.test_trace_digests import assert_frozen

TINY = training_point(1, 2, Precision.FP32)
LARGE = training_point(2, 4, Precision.MIXED)


@pytest.fixture(scope="module")
def tiny_trace():
    return build_iteration_trace(BERT_TINY, TINY)


@pytest.fixture(scope="module")
def large_trace():
    return build_iteration_trace(BERT_LARGE, LARGE)


class TestGoldenEquivalence:
    """Each columnar pass reproduces its frozen digest bit-exactly."""

    def test_fuse_elementwise(self, tiny_trace, large_trace):
        for base, trace in (("tiny", tiny_trace), ("large", large_trace)):
            got = PassManager((ElementwiseChainFusionPass(),)).run(trace)
            assert_frozen(f"pass/fuse_elementwise/{base}", got)

    def test_checkpointing(self, tiny_trace, large_trace):
        for base, trace in (("tiny", tiny_trace), ("large", large_trace)):
            got = PassManager((CheckpointingPass(),)).run(trace)
            assert_frozen(f"pass/checkpointing/{base}", got)
        explicit = PassManager((CheckpointingPass(4),)).run(large_trace)
        assert_frozen("pass/checkpointing:4/large", explicit)

    def test_fused_attention(self, tiny_trace, large_trace):
        for base, trace in (("tiny", tiny_trace), ("large", large_trace)):
            got = PassManager((FusedAttentionPass(),)).run(trace)
            assert_frozen(f"pass/fused_attention/{base}", got)

    def test_windowed_attention(self, tiny_trace, large_trace):
        for base, trace in (("tiny", tiny_trace), ("large", large_trace)):
            got = PassManager((WindowedAttentionPass(),)).run(trace)
            assert_frozen(f"pass/windowed_attention/{base}", got)
        window = WindowConfig(block=32, window_blocks=5)
        got = PassManager((WindowedAttentionPass(window),)).run(large_trace)
        assert_frozen("pass/windowed_attention:32x5/large", got)

    def test_sliced_build(self):
        for ways in (1, 4):
            got = build_sliced_iteration_trace(BERT_TINY, TINY, ways)
            assert_frozen(f"sliced/{ways}/tiny", got)


class TestComposition:
    def test_composed_pipeline_matches_composed_oracle(self, tiny_trace):
        pipeline = PassManager(
            (ElementwiseChainFusionPass(), CheckpointingPass()))
        got = pipeline.run(tiny_trace)
        assert_frozen("pass/fuse_elementwise,checkpointing/tiny", got)

    def test_order_matters_for_kernel_counts(self, tiny_trace):
        fuse, ckpt = ElementwiseChainFusionPass(), CheckpointingPass()
        fuse_then_ckpt = PassManager((fuse, ckpt)).run(tiny_trace)
        ckpt_then_fuse = PassManager((ckpt, fuse)).run(tiny_trace)
        # Fusing first shrinks the forward kernels that checkpointing
        # replays; fusing after also fuses inside the replays, but the
        # replay rows break chain adjacency differently — the two orders
        # must not be conflated by callers (or by the cache).
        assert len(fuse_then_ckpt) < len(tiny_trace) * 2
        assert len(fuse_then_ckpt) != len(ckpt_then_fuse) or (
            fuse_then_ckpt.kernels != ckpt_then_fuse.kernels)
        signatures = {PassManager((fuse, ckpt)).signature,
                      PassManager((ckpt, fuse)).signature}
        assert len(signatures) == 2

    def test_empty_manager_is_identity(self, tiny_trace):
        out = PassManager(()).run(tiny_trace)
        assert out.kernels == tiny_trace.kernels
        assert PassManager(()).signature == ""


class TestProvenance:
    def test_rewritten_rows_are_stamped(self, tiny_trace):
        fused = PassManager((ElementwiseChainFusionPass(),)).run(tiny_trace)
        table = fused.table
        stamped = table.provenance >= 0
        assert stamped.any() and not stamped.all()
        names = {table.provenance_names[c]
                 for c in np.unique(table.provenance[stamped])}
        assert names == {"fuse_elementwise"}

    def test_generator_rows_are_unstamped(self, tiny_trace):
        assert (tiny_trace.table.provenance == -1).all()

    def test_provenance_survives_composition(self, tiny_trace):
        out = PassManager((ElementwiseChainFusionPass(),
                           CheckpointingPass())).run(tiny_trace)
        table = out.table
        names = {table.provenance_names[c]
                 for c in np.unique(table.provenance) if c >= 0}
        assert names == {"fuse_elementwise", "checkpointing"}


class TestSignatureAndRegistry:
    def test_signature_is_stable_and_parameterized(self):
        manager = build_pipeline("fuse_elementwise,checkpointing:4")
        assert manager.signature == ("fuse_elementwise"
                                     "|checkpointing(num_checkpoints=4)")
        assert build_pipeline("windowed_attention:32").signature == (
            "windowed_attention(block=32,window_blocks=3)")

    def test_unknown_pass_lists_valid_names(self):
        with pytest.raises(KeyError, match="fuse_elementwise"):
            build_pipeline("nonsense")

    def test_registry_factories_build_their_pass(self):
        for name, (description, factory) in available_passes().items():
            instance = factory(None)
            assert isinstance(instance, TracePass)
            assert instance.name == name
            assert description

    def test_distinct_cache_keys_per_pipeline(self):
        from repro.hw.device import mi100
        from repro.runner.cache import ResultCache

        cache = ResultCache()
        points = [(BERT_TINY, TINY)]
        raw = cache.grid_key(points, mi100())
        fused = cache.grid_key(points, mi100(),
                               pipeline="fuse_elementwise")
        composed = cache.grid_key(
            points, mi100(),
            pipeline="fuse_elementwise|checkpointing(num_checkpoints=4)")
        assert len({raw, fused, composed}) == 3
        assert cache.grid_key(points, mi100(), pipeline="") == raw


class _BrokenPass(TracePass):
    name = "broken"

    def apply(self, table, ctx):
        # Drop every layer-0 row: the surviving layer indices no longer
        # start at zero, a structural invariant validate_trace enforces.
        return table.select(table.layer != 0)


class TestDebugValidation:
    """The manager validates the trace after every pass, always."""

    def test_debug_mode_validates_after_each_pass(self, tiny_trace):
        manager = PassManager((_BrokenPass(),))
        with pytest.raises(ValueError, match="broken"):
            manager.run(tiny_trace)

    def test_real_passes_survive_debug_mode(self, tiny_trace):
        manager = PassManager(
            (ElementwiseChainFusionPass(), FusedAttentionPass(),
             CheckpointingPass(), OptimizerShardPass(4)))
        out = manager.run(tiny_trace)
        assert len(out) > 0


class TestDistributedAndNmcPasses:
    def test_shard_divides_all_but_grad_norm(self, tiny_trace):
        sharded = PassManager((OptimizerShardPass(8),)).run(tiny_trace)
        assert len(sharded) == len(tiny_trace)
        before = {k.name: k for k in tiny_trace.kernels
                  if k.component is Component.OPTIMIZER}
        after = {k.name: k for k in sharded.kernels
                 if k.component is Component.OPTIMIZER}
        assert before, "trace has no optimizer kernels"
        for name, kernel in before.items():
            if "grad_norm" in name:
                assert after[name] == kernel
            else:
                assert after[name].flops == -(-kernel.flops // 8)
                assert after[name].bytes_read == -(-kernel.bytes_read // 8)

    def test_shard_one_device_is_identity(self, tiny_trace):
        out = PassManager((OptimizerShardPass(1),)).run(tiny_trace)
        assert out.kernels == tiny_trace.kernels

    def test_shard_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            OptimizerShardPass(0)

    def test_offload_drops_exactly_the_optimizer(self, tiny_trace):
        flops, moved, groups = optimizer_workload(tiny_trace)
        legacy = [k for k in tiny_trace.kernels
                  if k.component is Component.OPTIMIZER]
        assert (flops, moved, groups) == (
            sum(k.flops for k in legacy),
            sum(k.bytes_total for k in legacy), len(legacy))
        offloaded = PassManager((OptimizerOffloadPass(),)).run(tiny_trace)
        assert len(offloaded) == len(tiny_trace) - groups
        assert not any(k.component is Component.OPTIMIZER
                       for k in offloaded.kernels)


class TestFusionImpactGuards:
    def test_both_sides_zero_is_identity_ratio(self):
        impact = FusionImpact(kernels_before=0, kernels_after=0,
                              bytes_before=0, bytes_after=0,
                              time_before=0.0, time_after=0.0)
        assert impact.kernel_ratio == 1.0
        assert impact.bytes_ratio == 1.0
        assert impact.time_ratio == 1.0

    def test_empty_fused_side_raises_not_zero_division(self):
        impact = FusionImpact(kernels_before=5, kernels_after=0,
                              bytes_before=10, bytes_after=0,
                              time_before=1.0, time_after=0.0)
        for ratio in ("kernel_ratio", "bytes_ratio", "time_ratio"):
            with pytest.raises(ValueError, match="empty fused side"):
                getattr(impact, ratio)


class TestBuilderStaleTable:
    def test_materialization_alone_keeps_the_table(self):
        trace = build_iteration_trace(BERT_TINY, TINY)
        table = trace.table
        _ = trace.kernels
        assert trace.table is table


class TestRunPointPipelines:
    def test_passes_kwarg_changes_the_result(self):
        from repro.experiments.common import run_point

        raw_trace, raw_profile = run_point(BERT_TINY, TINY)
        fused_trace, fused_profile = run_point(
            BERT_TINY, TINY,
            passes=PassManager((ElementwiseChainFusionPass(),)))
        assert len(fused_trace) < len(raw_trace)
        assert fused_profile.total_time < raw_profile.total_time
        # Serving the raw point again must not return the fused variant.
        again, _ = run_point(BERT_TINY, TINY)
        assert len(again) == len(raw_trace)
