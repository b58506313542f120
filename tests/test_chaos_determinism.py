"""The headline invariant: chaos perturbs time, never bytes.

Under any seeded :class:`~repro.faults.plan.FaultPlan` — worker kills,
cache corruption, slow compute — every experiment that *completes*
produces output byte-identical to the fault-free run.  Faults cost
retries, recomputes and sleeps; they are never allowed to change what
gets computed.  The resume path rides along: ``repro run all --resume``
re-executes exactly the experiments the previous manifest recorded as
failed or missing.
"""

import json
import os

import pytest

from repro import cli
from repro.faults import sites
from repro.faults.plan import FaultPlan
from repro.runner import cache as cache_module
from repro.runner import manifest as manifest_module
from repro.runner.executor import run_experiments
from repro.trace.bert_trace import clear_iteration_traces

#: Small, fast experiments — the invariant is about bytes, not scale.
IDS = ["fig4", "sec4", "fig6"]

#: ≥50% worker kills, ≥30% cache corruption, every compute slowed.
CHAOS = "worker.kill:0.5,cache.corrupt:0.3,compute.slow:1ms"
SEED = 11


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """Fresh cache + runs dirs, no leftover plan, empty memo."""
    monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv(sites.FAULTS_ENV, raising=False)
    monkeypatch.delenv(sites.FAULTS_SEED_ENV, raising=False)
    cache_module.reset_cache()
    sites.deactivate()
    clear_iteration_traces()
    yield tmp_path
    os.environ.pop(sites.FAULTS_ENV, None)
    os.environ.pop(sites.FAULTS_SEED_ENV, None)
    cache_module.reset_cache()
    sites.deactivate()
    clear_iteration_traces()


def _outputs(results):
    return {r.experiment_id: r.output for r in results}


class TestChaosDeterminism:
    def test_faulted_run_is_byte_identical(self, isolated):
        baseline = run_experiments(IDS)
        assert all(r.ok for r in baseline)

        # New cache, chaos on: kills and corruption force retries and
        # recomputes, but completed outputs must not move by one byte.
        cache_module.configure_cache(isolated / "chaos-cache")
        clear_iteration_traces()
        plan = FaultPlan.parse(CHAOS, seed=SEED)
        sites.activate(plan)
        faulted = run_experiments(IDS)
        assert all(r.ok for r in faulted), \
            [r.error for r in faulted if not r.ok]
        assert _outputs(faulted) == _outputs(baseline)

        # The chaos actually happened: the plan consumed occurrences and
        # at least one worker kill was absorbed by a retry.
        assert plan.occurrences().get("worker.kill", 0) >= len(IDS)
        assert sum(r.counters.get("retries", 0) for r in faulted) >= 1

    def test_warm_cache_replay_under_corruption(self, isolated):
        baseline = run_experiments(IDS)

        # Same cache, corruption on every read: each cached entry is
        # quarantined, recomputed, and still byte-identical.
        sites.activate(FaultPlan.parse("cache.corrupt:1", seed=SEED))
        replay = run_experiments(IDS)
        assert all(r.ok for r in replay)
        assert _outputs(replay) == _outputs(baseline)
        assert cache_module.get_cache().stats.corrupt >= 1

    def test_different_seeds_same_bytes(self, isolated):
        baseline = run_experiments(IDS)
        outputs = set()
        for seed in (1, 2, 3):
            cache_module.configure_cache(isolated / f"seed-{seed}")
            clear_iteration_traces()
            sites.activate(FaultPlan.parse(CHAOS, seed=seed))
            results = run_experiments(IDS)
            assert all(r.ok for r in results)
            outputs.add(json.dumps(_outputs(results), sort_keys=True))
        outputs.add(json.dumps(_outputs(baseline), sort_keys=True))
        assert len(outputs) == 1


class TestResume:
    def test_resume_ids_returns_failed_and_missing(self):
        manifest = {"experiments": [
            {"experiment_id": "fig4", "ok": True},
            {"experiment_id": "sec4", "ok": False},
        ]}
        assert manifest_module.resume_ids(
            manifest, ["fig4", "sec4", "fig6"]) == ["sec4", "fig6"]

    def test_cli_resume_skips_completed(self, isolated, capsys):
        assert cli.main(["run", "fig4"]) == 0
        assert cli.main(["run", "fig4", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "nothing to resume" in captured.out
        assert "1 already complete, 0 to run" in captured.err

    def test_cli_resume_reruns_failures(self, isolated, capsys):
        assert cli.main(["run", "fig4"]) == 0
        # Forge the latest manifest into a partial run: fig4 failed.
        path = manifest_module.latest_manifest_path()
        manifest = manifest_module.load_manifest(path)
        manifest["experiments"][0]["ok"] = False
        path.write_text(json.dumps(manifest))

        assert cli.main(["run", "fig4", "--resume"]) == 0
        captured = capsys.readouterr()
        assert "0 already complete, 1 to run" in captured.err
        assert "fig4" in captured.out

    def test_resume_after_a_chaos_run_completes_the_batch(self, isolated,
                                                          capsys):
        # A chaos run whose kills exhaust the retry budget leaves failed
        # rows in the manifest; a fault-free --resume finishes the job
        # and the completed outputs match a clean run.
        assert cli.main(["run", "fig4"]) == 0
        clean = capsys.readouterr().out

        cache_module.configure_cache(isolated / "retry-cache")
        clear_iteration_traces()
        assert cli.main(["run", "fig4", "--fresh",
                         "--faults", "worker.kill:1",
                         "--fault-seed", "3"]) == 1
        capsys.readouterr()

        # The chaos CLI exported the plan to the environment (that is
        # how --jobs workers inherit it); a clean resume clears both.
        # Popped directly, NOT via monkeypatch — monkeypatch would record
        # the exported spec as the old value and restore it at teardown.
        os.environ.pop(sites.FAULTS_ENV, None)
        os.environ.pop(sites.FAULTS_SEED_ENV, None)
        sites.deactivate()
        assert cli.main(["run", "fig4", "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "fig4" in resumed
        # Identical deterministic stdout (reports) for the resumed run.
        assert resumed.split("--resume")[-1].strip() != ""
        assert resumed.strip().splitlines()[-1] == \
            clean.strip().splitlines()[-1]
