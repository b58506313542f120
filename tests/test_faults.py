"""Fault plans and fault sites: parsing, determinism, injection helpers.

The contract under test is the one the chaos-determinism suite builds
on: a :class:`~repro.faults.plan.FaultPlan` is a *pure* function of
``(seed, site, occurrence index)`` — no RNG state, no ordering
dependence — and the site helpers are no-ops without an active plan.
"""

import os
import pickle

import pytest

from repro.distributed.network import LinkSpec
from repro.distributed.simulator import (CollectiveFaults,
                                         simulate_hierarchical_allreduce,
                                         simulate_ring_allreduce,
                                         simulate_tree_allreduce)
from repro.faults import sites
from repro.faults.plan import (FaultPlan, FaultRule, parse_duration,
                               parse_rule, site_uniform)
from repro.runner.cache import QUARANTINE_DIR, ResultCache


@pytest.fixture(autouse=True)
def no_active_plan():
    """Every test starts and ends with no process-wide plan."""
    sites.deactivate()
    os.environ.pop(sites.FAULTS_ENV, None)
    os.environ.pop(sites.FAULTS_SEED_ENV, None)
    yield
    sites.deactivate()
    os.environ.pop(sites.FAULTS_ENV, None)
    os.environ.pop(sites.FAULTS_SEED_ENV, None)


class TestParsing:
    def test_duration_units(self):
        assert parse_duration("50ms") == pytest.approx(0.05)
        assert parse_duration("1.5s") == pytest.approx(1.5)
        assert parse_duration("200us") == pytest.approx(2e-4)

    def test_duration_junk_raises(self):
        with pytest.raises(ValueError):
            parse_duration("fast")

    def test_rule_forms(self):
        assert parse_rule("worker.kill:0.2") == FaultRule(
            "worker.kill", rate=0.2)
        assert parse_rule("compute.slow:50ms") == FaultRule(
            "compute.slow", rate=1.0, delay_s=0.05)
        assert parse_rule("cache.corrupt:0.3:10ms") == FaultRule(
            "cache.corrupt", rate=0.3, delay_s=0.01)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            parse_rule("worker.kill")
        with pytest.raises(ValueError):
            FaultRule("x", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule("x", rate=0.5, delay_s=-1.0)

    def test_spec_round_trips(self):
        spec = "cache.corrupt:0.1,compute.slow:50ms,worker.kill:0.2"
        plan = FaultPlan.parse(spec, seed=7)
        assert plan.spec() == spec
        again = FaultPlan.parse(plan.spec(), seed=plan.seed)
        assert again.spec() == plan.spec()

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("worker.kill:0.1,worker.kill:0.2")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("  , ,")


class TestDeterminism:
    def test_site_uniform_is_pure_and_in_range(self):
        draws = [site_uniform(3, "worker.kill", k) for k in range(100)]
        assert draws == [site_uniform(3, "worker.kill", k)
                         for k in range(100)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_schedule_same_seed_identical(self):
        a = FaultPlan.parse("worker.kill:0.3", seed=11)
        b = FaultPlan.parse("worker.kill:0.3", seed=11)
        assert a.schedule("worker.kill", 200) == b.schedule(
            "worker.kill", 200)

    def test_schedule_is_independent_of_other_sites(self):
        alone = FaultPlan.parse("worker.kill:0.3", seed=5)
        crowded = FaultPlan.parse(
            "worker.kill:0.3,cache.corrupt:0.9,serve.fail:0.5", seed=5)
        assert alone.schedule("worker.kill", 100) == crowded.schedule(
            "worker.kill", 100)

    def test_decide_consumes_occurrences_in_order(self):
        plan = FaultPlan.parse("worker.kill:0.5", seed=9)
        expected = plan.schedule("worker.kill", 50)
        fired = [k for k in range(50)
                 if plan.decide("worker.kill") is not None]
        assert fired == expected
        assert plan.occurrences() == {"worker.kill": 50}

    def test_unknown_site_consumes_nothing(self):
        plan = FaultPlan.parse("worker.kill:0.5", seed=9)
        assert plan.decide("not.a.site") is None
        assert plan.occurrences() == {}

    def test_reset_replays_the_schedule(self):
        plan = FaultPlan.parse("worker.kill:0.5", seed=9)
        first = [plan.decide("worker.kill") for _ in range(20)]
        plan.reset()
        assert [plan.decide("worker.kill") for _ in range(20)] == first

    def test_rate_edges(self):
        always = FaultPlan([FaultRule("s", rate=1.0)])
        never = FaultPlan([FaultRule("s", rate=0.0)])
        assert always.schedule("s", 10) == list(range(10))
        assert never.schedule("s", 10) == []


class TestSites:
    def test_inactive_helpers_are_noops(self):
        assert sites.decide("worker.kill") is None
        assert sites.inject_delay("compute.slow") == 0.0
        sites.inject_failure("worker.kill")  # must not raise
        assert sites.corrupt_bytes("cache.corrupt", b"abc") == b"abc"

    def test_inject_failure_raises_scheduled_kind(self):
        sites.activate(FaultPlan.parse("worker.kill:1", seed=0))
        with pytest.raises(sites.InjectedWorkerKill) as caught:
            sites.inject_failure("worker.kill", sites.InjectedWorkerKill)
        assert caught.value.site == "worker.kill"
        assert caught.value.index == 0

    def test_inject_delay_sleeps_the_scheduled_amount(self):
        sites.activate(FaultPlan.parse("compute.slow:1ms", seed=0))
        assert sites.inject_delay("compute.slow") == pytest.approx(1e-3)

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        sites.activate(FaultPlan.parse("cache.corrupt:1", seed=0))
        data = bytes(range(32))
        mangled = sites.corrupt_bytes("cache.corrupt", data)
        assert mangled != data
        assert len(mangled) == len(data)
        assert sum(a != b for a, b in zip(data, mangled)) == 1

    def test_environment_round_trip(self):
        plan = FaultPlan.parse("worker.kill:0.25,compute.slow:5ms", seed=42)
        sites.export_to_env(plan)
        sites.deactivate()  # force the lazy env read
        loaded = sites.active_plan()
        assert loaded is not None
        assert loaded.spec() == plan.spec()
        assert loaded.seed == 42

    def test_explicit_activation_beats_environment(self):
        os.environ[sites.FAULTS_ENV] = "worker.kill:1"
        sites.activate(None)
        assert sites.active_plan() is None


class TestCacheQuarantine:
    def test_injected_corruption_is_a_miss_and_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_payload("deadbeef" * 8, {"output": "x" * 100})
        sites.activate(FaultPlan.parse("cache.corrupt:1", seed=0))
        assert cache.get_payload("deadbeef" * 8) is None
        assert cache.stats.corrupt == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].suffix == ".corrupt"

    def test_on_disk_corruption_detected_without_a_plan(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "feedface" * 8
        cache.put_payload(key, {"output": "y" * 100})
        path = next(p for p in tmp_path.glob("*/*.pkl"))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.get_payload(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # moved aside, not left to re-fail

    def test_unframed_entries_are_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cafebabe" * 8
        cache.put_payload(key, {"output": "z"})
        path = next(p for p in tmp_path.glob("*/*.pkl"))
        path.write_bytes(pickle.dumps({"output": "z"}))  # valid, unframed
        assert cache.get_payload(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()


LINK = LinkSpec(name="test", bandwidth_gbps=100.0, latency_us=1.0)


class TestCollectiveFaults:
    def test_none_is_the_fault_free_simulation(self):
        base = simulate_ring_allreduce(1 << 20, 8, LINK)
        assert base.failed_ranks == ()
        assert base.detect_s == 0.0

    def test_same_faults_same_timeline(self):
        faults = CollectiveFaults(seed=7, straggler_rate=0.3,
                                  straggler_delay_s=1e-3,
                                  degraded_link_rate=0.2,
                                  rank_fail_rate=0.2)
        a = simulate_ring_allreduce(1 << 20, 8, LINK, faults)
        b = simulate_ring_allreduce(1 << 20, 8, LINK, faults)
        assert a.events == b.events
        assert a.failed_ranks == b.failed_ranks

    def test_different_seed_different_timeline(self):
        runs = [simulate_ring_allreduce(
            1 << 20, 8, LINK,
            CollectiveFaults(seed=seed, straggler_rate=0.3,
                             straggler_delay_s=1e-3))
            for seed in (1, 2)]
        assert runs[0].events != runs[1].events

    def test_stragglers_slow_the_ring(self):
        base = simulate_ring_allreduce(1 << 20, 8, LINK)
        slow = simulate_ring_allreduce(
            1 << 20, 8, LINK,
            CollectiveFaults(seed=3, straggler_rate=0.5,
                             straggler_delay_s=1e-3))
        assert slow.completion_s > base.completion_s

    def test_failed_ranks_drop_out_and_pay_detection(self):
        faults = CollectiveFaults(seed=0, failed_ranks=(2, 5),
                                  detect_timeout_s=0.25)
        run = simulate_ring_allreduce(1 << 20, 8, LINK, faults)
        assert run.failed_ranks == (2, 5)
        assert run.detect_s == 0.25
        participants = ({e.source for e in run.events}
                        | {e.destination for e in run.events})
        assert participants == {0, 1, 3, 4, 6, 7}
        assert min(e.start_s for e in run.events) >= 0.25

    def test_somebody_always_survives(self):
        faults = CollectiveFaults(seed=0, failed_ranks=(0, 1, 2, 3))
        assert len(faults.failed(4)) == 3

    def test_tree_under_faults_is_deterministic(self):
        faults = CollectiveFaults(seed=5, straggler_rate=0.4,
                                  straggler_delay_s=2e-3, rank_fail_rate=0.2)
        a = simulate_tree_allreduce(1 << 20, 8, LINK, faults)
        assert a.events == simulate_tree_allreduce(1 << 20, 8, LINK,
                                                   faults).events

    def test_hierarchical_faults_hit_the_inter_node_ring(self):
        faults = CollectiveFaults(seed=1, failed_ranks=(1,),
                                  detect_timeout_s=0.1)
        run = simulate_hierarchical_allreduce(
            1 << 20, nodes=4, devices_per_node=2, intra_link=LINK,
            inter_link=LINK, faults=faults)
        assert run.failed_ranks == (1,)  # a dead *node*

    def test_from_plan_maps_net_sites(self):
        plan = FaultPlan.parse(
            "net.straggle:0.3:2ms,net.degrade:0.1,net.rank_fail:0.25",
            seed=3)
        faults = CollectiveFaults.from_plan(plan)
        assert faults.seed == 3
        assert faults.straggler_rate == 0.3
        assert faults.straggler_delay_s == pytest.approx(2e-3)
        assert faults.degraded_link_rate == 0.1
        assert faults.rank_fail_rate == 0.25
