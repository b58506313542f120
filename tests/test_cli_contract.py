"""CLI exit-code contract and run-manifest tests.

Most tests run against a tiny stub registry so the contract (exit codes,
failure isolation, manifest contents) is exercised without paying for the
real figures.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments import registry as registry_module
from repro.experiments.registry import Experiment
from repro.trace.bert_trace import clear_iteration_traces


def _ok_run():
    return [1, 2, 3]


def _ok_render(result):
    return "header\n" + "\n".join(f"row {v}" for v in result)


def _boom_run():
    raise RuntimeError("synthetic experiment failure")


STUB_REGISTRY = {
    "alpha": Experiment("alpha", "first stub", _ok_run, _ok_render),
    "boom": Experiment("boom", "always fails", _boom_run, _ok_render),
    "omega": Experiment("omega", "last stub", _ok_run, _ok_render),
}


@pytest.fixture()
def stub_registry(monkeypatch):
    monkeypatch.setattr(registry_module, "REGISTRY", dict(STUB_REGISTRY))


@pytest.fixture()
def runs_dir(tmp_path, monkeypatch):
    directory = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(directory))
    return directory


class TestRunExitCodes:
    def test_unknown_id_exits_2_and_lists_valid_ids(self, stub_registry,
                                                    capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        for eid in STUB_REGISTRY:
            assert eid in err

    def test_single_success_exits_0(self, stub_registry, runs_dir, capsys):
        assert main(["run", "alpha"]) == 0
        out = capsys.readouterr().out
        assert "alpha: first stub" in out
        assert "row 1" in out

    def test_failure_does_not_abort_batch(self, stub_registry, runs_dir,
                                          capsys):
        assert main(["run", "all"]) == 1
        captured = capsys.readouterr()
        # Experiments after the failing one still ran, in registry order.
        assert captured.out.index("alpha:") < captured.out.index("boom:")
        assert captured.out.index("boom:") < captured.out.index("omega:")
        assert "synthetic experiment failure" in captured.err
        assert "2/3 experiments succeeded" in captured.out
        assert "FAILED: boom" in captured.out

    def test_all_green_batch_exits_0(self, stub_registry, runs_dir,
                                     monkeypatch, capsys):
        registry_module.REGISTRY.pop("boom")
        assert main(["run", "all"]) == 0
        assert "2/2 experiments succeeded" in capsys.readouterr().out


class TestManifest:
    def test_run_writes_manifest(self, stub_registry, runs_dir, capsys):
        assert main(["run", "all"]) == 1
        manifests = list(runs_dir.glob("*.json"))
        assert len(manifests) == 1
        payload = json.loads(manifests[0].read_text())
        from repro.runner.manifest import SCHEMA_VERSION
        assert payload["schema"] == SCHEMA_VERSION
        assert "observability" in payload
        assert payload["command"] == "run all"
        assert payload["totals"]["experiments"] == 3
        assert payload["totals"]["failed"] == 1
        by_id = {e["experiment_id"]: e for e in payload["experiments"]}
        assert by_id["boom"]["ok"] is False
        assert "synthetic experiment failure" in by_id["boom"]["error"]
        assert by_id["alpha"]["ok"] is True
        assert by_id["alpha"]["duration_s"] >= 0

    def test_no_manifest_flag(self, stub_registry, runs_dir, capsys):
        assert main(["run", "alpha", "--no-manifest"]) == 0
        assert not runs_dir.exists()

    def test_report_summarizes_latest_run(self, stub_registry, runs_dir,
                                          capsys):
        main(["run", "all"])
        capsys.readouterr()
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "boom" in out
        assert "FAILED" in out
        assert "1 failed" in out

    def test_report_without_runs_exits_1(self, runs_dir, capsys):
        assert main(["report"]) == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_spans_renders_observability(self, stub_registry, runs_dir,
                                         capsys):
        main(["run", "alpha", "--fresh"])
        capsys.readouterr()
        assert main(["spans"]) == 0
        out = capsys.readouterr().out
        assert "experiment.alpha" in out
        assert "count" in out

    def test_stats_renders_metrics(self, stub_registry, runs_dir, capsys):
        main(["run", "alpha", "--fresh"])
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "experiment.duration_s" in out

    def test_spans_without_runs_exits_1(self, runs_dir, capsys):
        assert main(["spans"]) == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_stats_without_runs_exits_1(self, runs_dir, capsys):
        assert main(["stats"]) == 1
        assert "no run manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "spans", "stats"])
    @pytest.mark.parametrize("body", ['{"experiments": [{"experiment',
                                      "[1, 2]"])
    def test_unreadable_manifest_exits_1_in_one_line(self, tmp_path, capsys,
                                                      command, body):
        manifest = tmp_path / "run.json"
        manifest.write_text(body)
        assert main([command, "--run", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"manifest {manifest}" in err

    def test_resume_over_unreadable_manifest_exits_2(self, stub_registry,
                                                     runs_dir, capsys):
        assert main(["run", "alpha"]) == 0
        (manifest,) = runs_dir.glob("*.json")
        manifest.write_text(manifest.read_text()[:40])  # truncated
        capsys.readouterr()
        assert main(["run", "all", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--resume: unreadable" in err


class TestResultCache:
    def test_second_run_served_from_cache_with_identical_stdout(
            self, stub_registry, runs_dir, tmp_path, capsys):
        from repro.runner import cache as cache_module

        cache_module.configure_cache(tmp_path / "cache")
        try:
            assert main(["run", "omega", "--no-manifest"]) == 0
            first = capsys.readouterr().out
            assert main(["run", "omega", "--no-manifest"]) == 0
            second = capsys.readouterr().out
            assert first == second

            # The manifest of a third run records the cache serve.
            assert main(["run", "omega"]) == 0
            capsys.readouterr()
            manifest = json.loads(
                sorted(runs_dir.glob("*.json"))[-1].read_text())
            [entry] = manifest["experiments"]
            assert entry["experiment_cached"] == 1

            # --fresh bypasses the result cache and recomputes.
            assert main(["run", "omega", "--fresh"]) == 0
            capsys.readouterr()
            manifest = json.loads(
                sorted(runs_dir.glob("*.json"))[-1].read_text())
            [entry] = manifest["experiments"]
            assert entry["experiment_cached"] == 0
        finally:
            cache_module.reset_cache()
            clear_iteration_traces()

    def test_failures_are_never_cached(self, stub_registry, runs_dir,
                                       capsys):
        assert main(["run", "boom", "--no-manifest"]) == 1
        capsys.readouterr()
        # Re-running executes the experiment again (and fails again)
        # rather than serving a cached failure.
        assert main(["run", "boom", "--no-manifest"]) == 1
        assert "synthetic experiment failure" in capsys.readouterr().err


class TestParallelRun:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="stub registry reaches workers via fork")
    def test_jobs_2_same_output_order_and_isolation(self, stub_registry,
                                                    runs_dir, capsys):
        assert main(["run", "all", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert out.index("alpha:") < out.index("boom:") < out.index("omega:")
        assert "FAILED: boom" in out


class TestListAndExport:
    def test_list_empty_registry_does_not_crash(self, monkeypatch, capsys):
        monkeypatch.setattr(registry_module, "REGISTRY", {})
        assert main(["list"]) == 0
        assert "no experiments registered" in capsys.readouterr().out

    def test_list_real_registry(self, capsys):
        assert main(["list"]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_export_non_tabular_exits_2(self, tmp_path, capsys):
        assert main(["export", "fig4", str(tmp_path / "x.csv")]) == 2

    def test_export_unknown_id_exits_2(self, tmp_path, capsys):
        assert main(["export", "nope", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["export", "--format", "csv", "fig3"],
        ["export", "--format", "perfetto", "tiny.ph1-b2-fp32"],
    ])
    def test_export_to_unwritable_path_exits_2_in_one_line(
            self, tmp_path, capsys, argv):
        path = str(tmp_path / "missing" / "out")
        assert main(argv + [path]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {path}: No such file or directory\n"

    def test_unwritable_path_fails_before_the_experiment_runs(
            self, monkeypatch, capsys):
        calls = []

        def never_run():
            calls.append("fig3")
            raise AssertionError("the experiment ran before the path "
                                 "was opened")

        monkeypatch.setitem(registry_module.REGISTRY, "fig3",
                            Experiment("fig3", "stub", never_run,
                                       _ok_render))
        path = "/nonexistent/dir/x.csv"
        assert main(["export", "--format", "csv", "fig3", path]) == 2
        assert capsys.readouterr().err \
            == f"cannot write {path}: No such file or directory\n"
        assert calls == []


class TestGridCommand:
    def test_grid_sweeps_and_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        assert main(["grid", "--model", "bert-tiny",
                     "--batch-sizes", "2,4", "--seq-lens", "128",
                     "--precisions", "fp32,mixed",
                     "--csv", str(target)]) == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "Ph1-B2-FP32" in out
        header = target.read_text().splitlines()[0]
        assert header.startswith("label,batch_size,seq_len,tokens")
        assert len(target.read_text().splitlines()) == 5  # header + 4 rows

    def test_grid_rejects_bad_axis(self, capsys):
        assert main(["grid", "--precisions", "fp13"]) == 2
        assert "bad grid axis" in capsys.readouterr().err

    def test_grid_rejects_nonpositive_batch_in_one_line(self, capsys):
        assert main(["grid", "--batch-sizes", "0", "--seq-lens", "128"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "must be positive" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["1_0", "2.0", "0x4", "٣"])
    def test_grid_rejects_non_decimal_batch_in_one_line(self, value,
                                                        capsys):
        assert main(["grid", "--model", "bert-tiny", "--batch-sizes", value,
                     "--seq-lens", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("bad grid axis: ")

    @pytest.mark.parametrize("axes", [
        ("32", ["128"], ["fp32"]),     # iterated digit by digit before
        (["32"], "128", ["fp32"]),
        ([1.5], ["128"], ["fp32"]),    # truncated to 1 before
        ([True], ["128"], ["fp32"]),   # read as 1 before
        ([32], [b"128"], ["fp32"]),
    ])
    def test_shared_axis_parser_rejects_non_lists_and_non_integers(
            self, axes):
        from repro.experiments.sweeps import parse_grid_axes

        with pytest.raises(ValueError):
            parse_grid_axes(*axes)

    def test_shared_axis_parser_keeps_valid_specs(self):
        from repro.config import Precision
        from repro.experiments.sweeps import parse_grid_axes

        assert parse_grid_axes(["32", " 64"], (128,), ["fp32", "Mixed"]) == (
            [32, 64], [128], [Precision.FP32, Precision.MIXED])


class TestFlightCommand:
    @pytest.fixture()
    def log(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        path.write_text("".join(
            json.dumps({"trace_id": f"{i:016x}", "method": "GET",
                        "route": "/healthz", "status": 200,
                        "duration_ms": 1.0, "spans": 1}) + "\n"
            for i in range(3)))
        return path

    def test_negative_last_exits_2_in_one_line(self, log, capsys):
        assert main(["flight", "--log", str(log), "--last", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--last" in captured.err

    @pytest.mark.parametrize("last, shown", [(0, 3), (2, 2), (5, 3)])
    def test_last_limits_the_listing(self, log, capsys, last, shown):
        assert main(["flight", "--log", str(log), "--last", str(last)]) == 0
        assert f"{shown} of 3 recorded requests" in capsys.readouterr().out


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, monkeypatch, capsys):
        from repro.config import BERT_TINY, TrainingConfig
        from repro.grid.engine import grid_points, grid_summaries
        from repro.runner import cache as cache_module

        cache_module.configure_cache(tmp_path / "cache")
        try:
            grid_summaries(grid_points(
                BERT_TINY, [TrainingConfig(batch_size=2, seq_len=16)]))

            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
            assert "entries: 1" in out

            assert main(["cache", "clear"]) == 0
            assert "removed 1" in capsys.readouterr().out
            assert main(["cache", "info"]) == 0
            assert "entries: 0" in capsys.readouterr().out
        finally:
            cache_module.reset_cache()


class TestTraceCommand:
    POINT = "fig3.ph1-b32-fp32"

    @staticmethod
    def _summary(out: str) -> dict:
        return dict(line.split(": ", 1) for line in out.splitlines())

    @staticmethod
    def _expected(trace) -> dict:
        return {"kernels": f"{len(trace)} ({len(trace.gemms())} gemms)",
                "total flops": f"{trace.total_flops:,}",
                "total bytes": f"{trace.total_bytes:,}"}

    def test_counts_match_iteration_trace(self, capsys):
        from repro.experiments.points import resolve_point
        from repro.trace.bert_trace import iteration_trace

        assert main(["trace", self.POINT]) == 0
        summary = self._summary(capsys.readouterr().out)
        expected = self._expected(iteration_trace(*resolve_point(self.POINT)))
        assert {key: summary[key] for key in expected} == expected

    def test_passes_print_pass_manager_result(self, capsys):
        from repro.experiments.points import resolve_point
        from repro.trace.bert_trace import iteration_trace
        from repro.trace.passes import build_pipeline

        assert main(["trace", self.POINT, "--passes",
                     "fuse_elementwise"]) == 0
        summary = self._summary(capsys.readouterr().out)
        fused = build_pipeline("fuse_elementwise").run(
            iteration_trace(*resolve_point(self.POINT)))
        expected = self._expected(fused)
        assert {key: summary[key] for key in expected} == expected
        assert "fuse_elementwise" in summary["source"]

    def test_unknown_point_exits_2(self, capsys):
        assert main(["trace", "fig3.nope"]) == 2
        assert "unknown operating point" in capsys.readouterr().err

    def test_unknown_pass_exits_2(self, capsys):
        assert main(["trace", self.POINT, "--passes", "nope"]) == 2
        assert "unknown pass 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_checkpoint_count_exits_2(self, capsys, count):
        assert main(["trace", "tiny.ph1-b2-fp32", "--passes",
                     f"checkpointing:{count}"]) == 2
        assert capsys.readouterr().err == "num_checkpoints must be >= 1\n"

    def test_checkpointing_twice_exits_2_in_one_line(self, capsys):
        assert main(["trace", "tiny.ph1-b2-fp32", "--passes",
                     "checkpointing,checkpointing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "checkpointing: the trace already holds recompute.")

    def test_export_checkpointing_twice_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        assert main(["export", "--format", "perfetto", "--passes",
                     "checkpointing,checkpointing:2", "tiny.ph1-b2-fp32",
                     str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "checkpointing: the trace already holds recompute.")
        assert not path.exists()


class TestStartup:
    def test_parser_loads_no_experiment_module(self):
        # A fresh interpreter: this process has long imported everything.
        probe = ("import sys\n"
                 "from repro.cli import _build_parser\n"
                 "_build_parser()\n"
                 "print('repro.experiments.common' in sys.modules)\n")
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
