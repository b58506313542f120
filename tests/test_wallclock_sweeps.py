"""Tests for the wall-clock profiler, sweep utilities and CSV export."""

import csv
import io

import numpy as np
import pytest

from repro.config import BERT_TINY, Precision
from repro.data import MarkovCorpus, PreTrainingDataset, Vocab
from repro.experiments.sweeps import (cross_product, export_experiment_csv,
                                      grid_sweep, rows_to_csv)
from repro.model import BertForPreTraining
from repro.optim import Adam
from repro.profiler.wallclock import (profile_step, profile_steps,
                                      summarize_wallclock)


@pytest.fixture(scope="module")
def rig():
    vocab = Vocab(size=BERT_TINY.vocab_size)
    dataset = PreTrainingDataset(vocab, MarkovCorpus(vocab, seed=0),
                                 seq_len=32, seed=1)
    model = BertForPreTraining(BERT_TINY, seed=2, dropout_p=0.0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    return model, optimizer, dataset


class TestWallclockProfiler:
    def test_phases_measured(self, rig):
        model, optimizer, dataset = rig
        profile = profile_step(model, optimizer, dataset.batch(8))
        assert [p.name for p in profile.phases] == ["forward", "backward",
                                                    "optimizer"]
        assert all(p.seconds > 0 for p in profile.phases)
        assert np.isfinite(profile.loss)

    def test_fractions_sum_to_one(self, rig):
        model, optimizer, dataset = rig
        profile = profile_step(model, optimizer, dataset.batch(8))
        total = sum(profile.fraction(name)
                    for name in ("forward", "backward", "optimizer"))
        assert total == pytest.approx(1.0)

    def test_forward_matmuls_counted(self, rig):
        model, optimizer, dataset = rig
        profile = profile_step(model, optimizer, dataset.batch(4))
        forward = profile.phases[0]
        # 8 matmuls per encoder layer + 4 in the heads.
        assert forward.matmuls == 8 * BERT_TINY.num_layers + 4
        assert forward.matmul_flops > 0

    def test_backward_slower_than_forward(self, rig):
        model, optimizer, dataset = rig
        profiles = profile_steps(model, optimizer,
                                 dataset.batches(16, 11), warmup=1)

        def fastest(name):
            return min(phase.seconds for p in profiles
                       for phase in p.phases if phase.name == name)

        # The per-phase minimum over ten steps is each phase's time with
        # the least host noise in it; a per-step ratio lets one preempted
        # forward or backward swing the result.
        ratio = fastest("backward") / fastest("forward")
        # Backward does ~2x the GEMM work; NumPy overheads blur it, so
        # accept a broad band around the paper's 2x.
        assert 1.0 < ratio < 5.0

    def test_unknown_phase_rejected(self, rig):
        model, optimizer, dataset = rig
        profile = profile_step(model, optimizer, dataset.batch(2))
        with pytest.raises(KeyError):
            profile.fraction("update")

    def test_summary_and_warmup(self, rig):
        model, optimizer, dataset = rig
        profiles = profile_steps(model, optimizer,
                                 dataset.batches(4, 3), warmup=1)
        assert len(profiles) == 2
        summary = summarize_wallclock(profiles)
        fraction_sum = (summary["forward_fraction"]
                        + summary["backward_fraction"]
                        + summary["optimizer_fraction"])
        assert fraction_sum == pytest.approx(1.0)
        with pytest.raises(ValueError):
            profile_steps(model, optimizer, dataset.batches(2, 1), warmup=1)
        with pytest.raises(ValueError):
            summarize_wallclock([])


class TestSweeps:
    def test_cross_product(self):
        points = cross_product((2, 4), (16, 32),
                               (Precision.FP32, Precision.MIXED))
        assert len(points) == 8
        distinct = {(p.batch_size, p.seq_len, p.precision) for p in points}
        assert len(distinct) == 8

    def test_grid_sweep_columns(self):
        points = cross_product((2, 4), (16,), (Precision.FP32,))
        rows = grid_sweep(BERT_TINY, points)
        assert len(rows) == 2
        for row in rows:
            assert {"label", "tokens", "gemm", "optimizer"} <= set(row)

    def test_grid_sweep_custom_metrics(self):
        points = cross_product((2,), (16,), (Precision.FP32,))
        rows = [{"label": r["label"], "tput": r["tokens"] / r["total_time_s"]}
                for r in grid_sweep(BERT_TINY, points)]
        assert set(rows[0]) == {"label", "tput"}
        assert rows[0]["tput"] > 0

    def test_rows_to_csv_flattens_dataclasses(self):
        from repro.experiments import fig3
        text = rows_to_csv(fig3.run())
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 5
        assert "transformer" in parsed[0]
        assert float(parsed[0]["transformer"]) > 0.5

    def test_rows_to_csv_rejects_empty(self):
        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_export_experiment_csv(self, tmp_path):
        path = tmp_path / "fig3.csv"
        export_experiment_csv("fig3", str(path))
        assert path.read_text().startswith("label,")

    def test_export_rejects_non_row_experiments(self, tmp_path):
        with pytest.raises(TypeError):
            export_experiment_csv("fig4", str(tmp_path / "x.csv"))
