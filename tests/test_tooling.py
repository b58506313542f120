"""Tests for trace validation, profile export, energy model, and the
windowed-attention extension."""

import csv
import io
import json

import pytest

from repro.config import BERT_LARGE, BERT_TINY, Precision, TrainingConfig, training_point
from repro.experiments import energy_study, windowed_study
from repro.hw import (default_energy_spec, iteration_energy, kernel_energy,
                      mi100, trace_energy)
from repro.ops.base import Component, DType, Phase
from repro.ops.windowed_attention import (WindowConfig,
                                          windowed_attention_op_kernels,
                                          windowed_score_gemm)
from repro.profiler import profile_trace, to_csv, to_json, write_csv
from repro.trace import Trace, build_iteration_trace, validate_trace
from repro.trace.kernel_table import KernelTable


@pytest.fixture(scope="module")
def tiny_trace():
    return build_iteration_trace(BERT_TINY,
                                 TrainingConfig(batch_size=2, seq_len=16))


def _rebuilt(trace, kernels) -> Trace:
    """``trace``'s configs over an edited kernel sequence."""
    return Trace(trace.model, trace.training,
                 KernelTable.from_kernels(kernels))


class TestTraceValidation:
    def test_generated_traces_are_valid(self, tiny_trace):
        report = validate_trace(tiny_trace)
        assert report.ok, report.errors
        report.raise_if_invalid()  # no-op when valid

    def test_large_trace_valid(self):
        trace = build_iteration_trace(BERT_LARGE,
                                      training_point(1, 32, Precision.MIXED))
        assert validate_trace(trace).ok

    def test_checkpointed_trace_valid(self):
        import dataclasses
        training = dataclasses.replace(
            training_point(1, 4, Precision.FP32),
            activation_checkpointing=True)
        trace = build_iteration_trace(BERT_LARGE, training)
        assert validate_trace(trace).ok

    def test_detects_phase_disorder(self, tiny_trace):
        shuffled = _rebuilt(tiny_trace, list(reversed(tiny_trace.kernels)))
        report = validate_trace(shuffled)
        assert not report.ok

    def test_detects_undercounted_gemm_flops(self, tiny_trace):
        import dataclasses
        kernels = list(tiny_trace.kernels)
        index = next(i for i, k in enumerate(kernels) if k.op_class.is_gemm)
        kernels[index] = dataclasses.replace(kernels[index],
                                             flops=kernels[index].flops - 1)
        report = validate_trace(_rebuilt(tiny_trace, kernels))
        assert any("flops" in e for e in report.errors)
        with pytest.raises(ValueError):
            report.raise_if_invalid()

    def test_fused_gemm_flops_only_warn(self, tiny_trace):
        import dataclasses
        kernels = list(tiny_trace.kernels)
        index = next(i for i, k in enumerate(kernels) if k.op_class.is_gemm)
        kernels[index] = dataclasses.replace(kernels[index],
                                             flops=kernels[index].flops * 2)
        report = validate_trace(_rebuilt(tiny_trace, kernels))
        assert report.ok
        assert any("fused GEMM" in w for w in report.warnings)

    def test_detects_missing_layer_attribution(self, tiny_trace):
        import dataclasses
        kernels = list(tiny_trace.kernels)
        index = next(i for i, k in enumerate(kernels)
                     if k.component is Component.TRANSFORMER)
        kernels[index] = dataclasses.replace(kernels[index],
                                             layer_index=None)
        assert not validate_trace(_rebuilt(tiny_trace, kernels)).ok

    def test_inference_trace_valid_as_non_training(self):
        from repro.trace import build_inference_trace
        trace = build_inference_trace(
            BERT_TINY, TrainingConfig(batch_size=2, seq_len=16))
        assert validate_trace(trace, training_iteration=False).ok


class TestProfileExport:
    @pytest.fixture(scope="class")
    def profile(self):
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2,
                                                     seq_len=16))
        return profile_trace(trace.kernels, mi100())

    def test_csv_structure(self, profile):
        rows = list(csv.DictReader(io.StringIO(to_csv(profile))))
        assert len(rows) == len(profile.records)
        first = rows[0]
        assert first["kernel_name"]
        assert float(first["duration_us"]) > 0

    def test_csv_durations_sum_to_total(self, profile):
        rows = list(csv.DictReader(io.StringIO(to_csv(profile))))
        total_us = sum(float(r["duration_us"]) for r in rows)
        assert total_us == pytest.approx(profile.total_time * 1e6, rel=1e-3)

    def test_csv_gemm_rows_have_shapes(self, profile):
        rows = list(csv.DictReader(io.StringIO(to_csv(profile))))
        gemm_rows = [r for r in rows if r["op_class"] in ("gemm",
                                                          "batched_gemm")]
        assert gemm_rows and all(r["gemm_shape"] for r in gemm_rows)

    def test_json_roundtrip(self, profile):
        payload = json.loads(to_json(profile))
        assert payload["device"]["name"] == "mi100"
        assert len(payload["kernels"]) == len(profile.records)
        assert payload["total_time_s"] == pytest.approx(profile.total_time)

    def test_json_carries_schema_version(self, profile):
        from repro.profiler.export import EXPORT_SCHEMA_VERSION
        payload = json.loads(to_json(profile))
        assert payload["schema"] == EXPORT_SCHEMA_VERSION

    def test_csv_layer_is_always_an_int(self, profile):
        # Un-attributed kernels used to export as layer="" — now they use
        # the columnar engine's absent code, -1.
        rows = list(csv.DictReader(io.StringIO(to_csv(profile))))
        layers = [int(r["layer"]) for r in rows]  # never raises
        assert -1 in layers  # embedding/optimizer kernels
        assert {0, 1} <= set(layers)  # both BERT_TINY encoder layers

    def test_write_csv(self, profile, tmp_path):
        path = tmp_path / "profile.csv"
        write_csv(profile, str(path))
        assert path.read_text().startswith("index,kernel_name")


class TestEnergyModel:
    def test_kernel_energy_components(self):
        from repro.ops.elementwise import elementwise
        from repro.ops.base import Region
        spec = default_energy_spec()
        kernel = elementwise("e", n_elements=1000, dtype=DType.FP32,
                             phase=Phase.FORWARD,
                             component=Component.TRANSFORMER,
                             region=Region.DR_RC_LN, inputs=1, outputs=1,
                             flops_per_element=2.0)
        expected = (2000 * spec.flop_energy(DType.FP32)
                    + 8000 * spec.dram_pj_per_byte) * 1e-12
        assert kernel_energy(kernel, spec) == pytest.approx(expected)

    def test_nmc_pricing_cheaper(self):
        from repro.ops.elementwise import elementwise
        from repro.ops.base import Region
        kernel = elementwise("e", n_elements=10**6, dtype=DType.FP32,
                             phase=Phase.OPTIMIZER,
                             component=Component.OPTIMIZER,
                             region=Region.OPT_STAGE1)
        spec = default_energy_spec()
        assert (kernel_energy(kernel, spec, nmc=True)
                < 0.5 * kernel_energy(kernel, spec))

    def test_mixed_precision_halves_energy_roughly(self):
        fp32 = build_iteration_trace(BERT_LARGE,
                                     training_point(1, 32, Precision.FP32))
        mp = build_iteration_trace(BERT_LARGE,
                                   training_point(1, 32, Precision.MIXED))
        ratio = trace_energy(mp.kernels) / trace_energy(fp32.kernels)
        assert 0.4 < ratio < 0.7

    def test_iteration_energy_report(self):
        trace = build_iteration_trace(BERT_TINY,
                                      TrainingConfig(batch_size=2,
                                                     seq_len=16))
        profile = profile_trace(trace.kernels, mi100())
        report = iteration_energy(profile)
        assert report.total_j == report.dynamic_j + report.static_j
        assert 0.0 < report.movement_fraction < 1.0

    def test_energy_experiment_bands(self):
        results = energy_study.run()
        fp32, mp = results
        assert mp.dynamic_j < fp32.dynamic_j
        for r in results:
            assert r.fusion_savings > 0.02      # fusion removes real traffic
            assert r.nmc_lamb_savings > 0.5     # bank-local access is cheap
            assert 0.1 < r.movement_fraction < 0.5


class TestWindowedAttention:
    def test_linear_scaling_in_sequence_length(self):
        window = WindowConfig(block=64, window_blocks=3)
        short = windowed_score_gemm(512, 64, 512, window)
        long = windowed_score_gemm(1024, 64, 512, window)
        assert long.flops == 2 * short.flops

    def test_window_clamps_to_sequence(self):
        window = WindowConfig(block=64, window_blocks=8)  # 512-key window
        clamped = windowed_score_gemm(128, 64, 512, window)
        dense_equivalent = 2 * 512 * 128 * 128 * 64
        assert clamped.flops == dense_equivalent

    def test_kernels_balanced_fwd_bwd(self):
        kernels = windowed_attention_op_kernels(
            seq_len=512, d_head=64, batch_heads=128,
            window=WindowConfig(), dtype=DType.FP32)
        fwd = sum(k.flops for k in kernels if k.phase is Phase.FORWARD
                  and k.op_class.is_gemm)
        bwd = sum(k.flops for k in kernels if k.phase is Phase.BACKWARD
                  and k.op_class.is_gemm)
        assert bwd == 2 * fwd

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowConfig(block=0)

    def test_study_shapes(self):
        rows = windowed_study.run(seq_lens=(128, 512))
        short, long = rows
        # Dense attention share grows with n; windowed stays ~flat.
        assert long.dense_share > 2 * short.dense_share
        assert abs(long.windowed_share - short.windowed_share) < 0.06
        # Windowing pays off at long sequences.
        assert long.iteration_speedup > 1.05
        assert short.iteration_speedup < 1.05
