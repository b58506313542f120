"""Integration tests: every figure/table must land in the paper's bands.

These are the reproduction's acceptance criteria (see EXPERIMENTS.md).  The
bands are the paper's reported values widened for the simulator substrate;
the *shapes* (orderings, trends, who wins) are asserted tightly.
"""

import pytest

from repro.config import BERT_LARGE, Precision, training_point
from repro.experiments import (fig3, fig4, fig6, fig7, fig8, fig9, fig11,
                               fig12, nmc_study, pipeline_study, sec4,
                               takeaways, zero_study)
from repro.trace import transformer_gemm_shapes


class TestFig3Bands:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.label: r for r in fig3.run()}

    def test_transformer_dominates(self, rows):
        # Obs. 1: Transformer layers are 68-85% of runtime.
        for row in rows.values():
            assert 0.60 < row.transformer < 0.90, row.label

    def test_output_layer_small(self, rows):
        # Obs. 1: output layer 3-7%.
        for row in rows.values():
            assert 0.02 < row.output < 0.08, row.label

    def test_embedding_negligible(self, rows):
        for row in rows.values():
            assert row.embedding < 0.02, row.label

    def test_lamb_band_at_b32_fp32(self, rows):
        # Takeaway 1: 7-10% at B32-FP32 (we accept 6-11%).
        assert 0.06 < rows["Ph1-B32-FP32"].optimizer < 0.11

    def test_lamb_grows_at_small_batch(self, rows):
        # Takeaway 1: ~25% at B4.
        assert 0.20 < rows["Ph1-B4-FP32"].optimizer < 0.32

    def test_lamb_grows_under_mixed_precision(self, rows):
        # Takeaway 2: 16-19% at B32-MP.
        assert 0.14 < rows["Ph1-B32-FP16"].optimizer < 0.22

    def test_components_sum_to_one(self, rows):
        for row in rows.values():
            total = (row.transformer + row.output + row.embedding
                     + row.optimizer)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestFig4Bands:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig4.run()

    def test_linear_fc_dominate_fp32(self, rows):
        # Obs. 2: linear+FC ~57% in FP32 (band 50-62%).
        assert 0.50 < rows["fp32"].linear_and_fc < 0.62

    def test_linear_fc_share_drops_in_mp(self, rows):
        # Takeaway 3.
        assert (rows["mixed"].linear_and_fc
                < rows["fp32"].linear_and_fc - 0.08)

    def test_gemm_share_drops_in_mp(self, rows):
        # 55% -> 36% in the paper; we assert the ~17-19pp drop.
        drop = rows["fp32"].gemm_total - rows["mixed"].gemm_total
        assert 0.10 < drop < 0.25

    def test_attention_ops_small_and_grow_in_mp(self, rows):
        # Takeaway 4: 7% FP32 -> 9% MP.
        assert rows["fp32"].attention_ops < 0.13
        assert rows["mixed"].attention_ops > rows["fp32"].attention_ops

    def test_gelu_band(self, rows):
        # ~13% FP32, ~15% MP.
        assert 0.09 < rows["fp32"].fc_gelu < 0.17
        assert rows["mixed"].fc_gelu > rows["fp32"].fc_gelu

    def test_dr_rc_ln_band(self, rows):
        # ~5% FP32 -> ~9% MP.
        assert 0.03 < rows["fp32"].dr_rc_ln < 0.09
        assert rows["mixed"].dr_rc_ln > rows["fp32"].dr_rc_ln

    def test_non_gemm_bands(self, rows):
        # Takeaways 8/9: ~45% FP32 -> ~64% MP (we assert 30%+ and growth).
        assert rows["fp32"].non_gemm > 0.30
        assert rows["mixed"].non_gemm > rows["fp32"].non_gemm + 0.10


class TestFig6Bands:
    @pytest.fixture(scope="class")
    def records(self):
        return fig6.run()

    def _by(self, records, operation, pass_name):
        return next(r for r in records if r.operation == operation
                    and r.pass_name == pass_name)

    def test_fc_gemms_most_intense(self, records):
        fc = self._by(records, "fc1", "fwd")
        linear = self._by(records, "linear", "fwd")
        score = self._by(records, "attn_score", "fwd")
        assert fc.intensity > linear.intensity > score.intensity

    def test_linear_intensity_value(self, records):
        # d=1024, T=4096 FP32: 2*T*d*d / 4*(2*T*d + d*d) ~ 228 ops/B.
        linear = self._by(records, "linear", "fwd")
        assert linear.intensity == pytest.approx(228.0, rel=0.05)

    def test_attention_bgemm_low_intensity(self, records):
        score = self._by(records, "attn_score", "fwd")
        assert score.intensity < 20.0

    def test_attention_bgemms_memory_bound(self, records):
        # Takeaway 6, in every pass.
        for r in records:
            if r.operation in ("attn_score", "attn_output"):
                assert r.memory_bound, (r.operation, r.pass_name)

    def test_fc_gemms_compute_bound(self, records):
        for r in records:
            if r.operation in ("fc1", "fc2"):
                assert not r.memory_bound, (r.operation, r.pass_name)

    def test_every_gemm_labeled(self, records):
        assert len(records) == 15  # 5 operations x 3 passes
        assert all("," in r.shape.label for r in records)


class TestFig7Bands:
    @pytest.fixture(scope="class")
    def groups(self):
        return {r.label: r for r in fig7.run()}

    def test_non_gemm_groups_low_intensity(self, groups):
        for label in ("LAMBStage1", "LAMBStage2", "Scale+Mask+DR+SM",
                      "GeLU", "DR+RC+LN", "EW multiply"):
            assert groups[label].intensity < 1.0, label

    def test_memory_bound_groups_demand_high_bandwidth(self, groups):
        for label in ("LAMBStage1", "LAMBStage2", "Scale+Mask+DR+SM",
                      "GeLU", "DR+RC+LN", "EW multiply"):
            assert groups[label].normalized_bandwidth > 0.5, label

    def test_fc_gemms_demand_little_bandwidth(self, groups):
        # Paper: ~20% of the max.
        assert groups["FC GEMMs"].normalized_bandwidth < 0.30

    def test_attention_bgemms_bandwidth_hungry(self, groups):
        # Paper: ~70% of the EW-mult max; our model puts them at the top.
        assert groups["Attn B-GEMMs"].normalized_bandwidth > 0.6
        assert (groups["Attn B-GEMMs"].normalized_bandwidth
                > 3 * groups["FC GEMMs"].normalized_bandwidth)

    def test_gemm_intensity_ordering(self, groups):
        assert (groups["FC GEMMs"].intensity
                > groups["Linear GEMMs"].intensity
                > groups["Attn B-GEMMs"].intensity)


class TestFig8Bands:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.label: r for r in fig8.run()}

    def test_lamb_falls_with_batch(self, rows):
        # 25% @B4 -> 7% @B32 in the paper.
        assert (rows["Ph1-B4-FP32"].optimizer
                > rows["Ph1-B16-FP32"].optimizer
                > rows["Ph1-B32-FP32"].optimizer)
        assert rows["Ph1-B4-FP32"].optimizer > 0.20
        assert rows["Ph1-B32-FP32"].optimizer < 0.11

    def test_attention_ops_grow_with_n_at_equal_tokens(self, rows):
        # Takeaway 10: 7% -> 17% moving Ph1-B16 -> Ph2-B4.
        ph1 = rows["Ph1-B16-FP32"].attention_ops
        ph2 = rows["Ph2-B4-FP32"].attention_ops
        assert ph2 > 1.8 * ph1

    def test_bgemm_share_grows_with_n(self, rows):
        # 3% -> 8% in the paper.
        assert rows["Ph2-B4-FP32"].bgemm > 1.7 * rows["Ph1-B16-FP32"].bgemm

    def test_in_layer_breakdown_stable_across_b(self, rows):
        # Sec. 3.3.1: breakdown largely unchanged as B varies at n=128.
        b16 = rows["Ph1-B16-FP32"].regions
        b32 = rows["Ph1-B32-FP32"].regions
        assert abs(b16.linear_and_fc - b32.linear_and_fc) < 0.08
        assert abs(b16.attention_ops - b32.attention_ops) < 0.04


class TestFig9Bands:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.config_name: r for r in fig9.run()}

    def test_linear_fc_share_grows_with_width(self, rows):
        assert (rows["C1"].regions.linear_and_fc
                < rows["C2"].regions.linear_and_fc
                < rows["C3"].regions.linear_and_fc)

    def test_lamb_share_grows_with_width(self, rows):
        # Takeaway 11; paper reports ~34% at C3 (we land ~26% at B=8).
        assert (rows["C1"].optimizer < rows["C2"].optimizer
                < rows["C3"].optimizer)
        assert rows["C3"].optimizer > 0.20

    def test_fc_grows_relative_to_attention(self, rows):
        assert (rows["C3"].fc_to_attention > rows["C2"].fc_to_attention
                > rows["C1"].fc_to_attention)

    def test_depth_sweep_preserves_breakdown(self):
        # Obs. 4: layer count scales everything linearly.
        shallow, _, deep = fig9.run_depth_sweep(layer_counts=(12, 24, 48))
        assert (deep.regions.linear_and_fc
                == pytest.approx(shallow.regions.linear_and_fc, abs=0.06))
        assert deep.optimizer >= shallow.optimizer - 0.02


class TestSec4Bands:
    @pytest.fixture(scope="class")
    def result(self):
        return sec4.run()

    def test_kernel_overhead_band(self, result):
        # Paper: ~33% more kernels.
        assert 0.25 < result.kernel_overhead < 0.45

    def test_runtime_overhead_band(self, result):
        # Paper: ~27% more runtime.
        assert 0.20 < result.runtime_overhead < 0.40

    def test_runtime_overhead_below_kernel_overhead(self, result):
        # Recomputed forward kernels are cheaper than average (backward
        # kernels do 2x the work), so runtime grows less than kernel count.
        assert result.runtime_overhead < result.kernel_overhead

    def test_lamb_share_drops(self, result):
        assert result.lamb_ckpt < result.lamb_base

    def test_in_layer_breakdown_stable(self, result):
        assert result.region_shift < 0.05

    def test_activation_memory_saved(self, result):
        assert result.activation_savings > 0.5


class TestFig11Bands:
    @pytest.fixture(scope="class")
    def timelines(self):
        return {t.label.split(" ")[0]: t for t in fig11.run()}

    def test_d2_close_to_s1(self, timelines):
        # Obs. 5.
        assert (timelines["D2"].total
                < 1.15 * timelines["S1"].total)

    def test_d1_exposes_communication(self, timelines):
        # ~19% in the paper.
        assert 0.12 < timelines["D1"].communication_fraction < 0.32

    def test_t1_bands(self, timelines):
        t1, s1 = timelines["T1"], timelines["S1"]
        # ~9% communication; LAMB halved.
        assert 0.05 < t1.communication_fraction < 0.20
        assert t1.optimizer_fraction < 0.8 * s1.optimizer_fraction

    def test_t2_bands(self, timelines):
        t2 = timelines["T2"]
        # ~42% communication; LAMB negligible.
        assert 0.30 < t2.communication_fraction < 0.55
        assert t2.optimizer_fraction < 0.04

    def test_replicated_share_grows_with_ways(self, timelines):
        assert (timelines["T2"].fraction("dr_rc_ln_replicated")
                > timelines["T1"].fraction("dr_rc_ln_replicated"))


class TestFig12Bands:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12.run()

    def test_layernorm_fusion_6_to_8x(self, result):
        ln = result.layernorm
        assert 5.0 <= ln.kernel_ratio <= 9.0
        assert 5.0 <= ln.bytes_ratio <= 9.0
        assert 5.0 <= ln.time_ratio <= 9.0

    def test_adam_kernel_ratio_near_250(self, result):
        assert 150 <= result.adam.kernel_ratio <= 350

    def test_adam_traffic_ratio_disproportionate(self, result):
        # The paper's point: ~250x kernels but only 6-8x traffic/time.
        adam = result.adam
        assert 4.0 <= adam.bytes_ratio <= 9.0
        assert adam.kernel_ratio > 20 * adam.bytes_ratio
        assert 4.0 <= adam.time_ratio <= 10.0

    def test_qkv_fusion_peak_gain(self, result):
        # Paper: up to ~62%.
        assert 0.4 < result.best_qkv_improvement < 1.5

    def test_qkv_gain_decreases_with_tokens(self, result):
        sweep = result.qkv_forward
        assert sweep[0].improvement > sweep[-1].improvement


class TestNmcBands:
    def test_lamb_speedup_and_end_to_end(self):
        results = nmc_study.run()
        for r in results:
            # Paper headline: 3.8x.
            assert 3.2 < r.lamb_speedup_vs_optimistic < 4.4, r.label
        gains = [r.end_to_end_improvement for r in results]
        # Paper: 5-22%; our small-batch points run slightly above.
        assert 0.04 < min(gains) and max(gains) < 0.30


class TestTable1:
    def test_all_takeaways_hold(self):
        checks = takeaways.run()
        failing = [c for c in checks if not c.holds]
        assert not failing, "\n".join(
            f"{c.takeaway_id}: {c.evidence}" for c in failing)

    def test_coverage(self):
        ids = {c.takeaway_id for c in takeaways.run()}
        # All 13 takeaways plus the NMC and fusion headlines.
        assert {f"T{i}" for i in range(1, 14)} <= ids
        assert "NMC" in ids and "FUS" in ids


class TestTable2Shapes:
    @pytest.fixture(scope="class")
    def forward(self):
        shapes = transformer_gemm_shapes(
            BERT_LARGE, training_point(1, 32, Precision.FP32))
        return {op: passes["fwd"].label for op, passes in shapes.items()}

    def test_forward_labels_match_paper_formulas(self, forward):
        # Table 2b at Ph1-B32: d=1024, d_ff=4096, nB=32*128, B*h=512.
        d, dff, nB = 1024, 4096, 32 * 128
        assert forward["linear"] == f"NN,{d},{nB},{d}"
        assert forward["fc1"] == f"NN,{dff},{nB},{d}"
        assert forward["fc2"] == f"NN,{d},{nB},{dff}"
        assert forward["attn_score"] == "NT,128,128,64,[512]"
        assert forward["attn_output"] == "NN,64,128,128,[512]"


class TestZeroBands:
    def test_zero_trades_optimizer_time_for_communication(self):
        for plain, zero, state_bytes in zero_study.run():
            assert (zero.optimizer_fraction
                    < 0.5 * plain.optimizer_fraction), zero.devices
            assert (zero.communication_fraction
                    > plain.communication_fraction), zero.devices
            # Two FP32 moments of ~336M parameters, sharded (+10%).
            assert state_bytes < 2 * 336_000_000 * 4 / zero.devices * 1.1


class TestPipelineBands:
    def test_pipeline_bubble_bounded(self):
        for ts, pp in pipeline_study.run():
            assert ts.devices == pp.devices
            assert pp.fraction("pipeline_bubble") < 0.25, pp.devices
