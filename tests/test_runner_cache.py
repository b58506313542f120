"""Runner cache: content addressing, round-trips, aliasing regression.

The aliasing tests are the regression guard for the seed's ``lru_cache``
bug: memoized ``run_point`` handed every caller the same mutable
``Trace``/``Profile``, so mutating ``trace.kernels`` corrupted the cache
for every later figure.  Callers still share one memoized trace, but it
is immutable: ``trace.kernels`` and ``profile.records`` are tuples, so
the mutation raises instead of corrupting the memo.
"""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import BERT_TINY, TrainingConfig
from repro.experiments.common import run_point
from repro.hw.device import mi100
from repro.runner import cache as cache_module
from repro.runner.cache import ResultCache
from repro.trace.bert_trace import clear_iteration_traces

TINY = TrainingConfig(batch_size=2, seq_len=16)
DEVICE = mi100()


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path):
    """Per-test cache directory and empty in-process memo."""
    cache_module.configure_cache(tmp_path / "cache")
    clear_iteration_traces()
    yield
    cache_module.reset_cache()
    clear_iteration_traces()


def _grid_summaries():
    from repro.grid.engine import grid_points, grid_summaries

    return grid_summaries(grid_points(BERT_TINY, [TINY]))


class TestAliasingRegression:
    def test_mutating_returned_trace_does_not_corrupt_cache(self):
        trace, _ = run_point(BERT_TINY, TINY)
        n_kernels = len(trace.kernels)
        with pytest.raises(AttributeError):
            trace.kernels.clear()  # a hostile downstream transform

        again, _ = run_point(BERT_TINY, TINY)
        assert len(again.kernels) == n_kernels

    def test_mutating_returned_profile_does_not_corrupt_cache(self):
        _, profile = run_point(BERT_TINY, TINY)
        n_records = len(profile.records)
        total = profile.total_time
        with pytest.raises(TypeError):
            del profile.records[: n_records // 2]

        _, again = run_point(BERT_TINY, TINY)
        assert len(again.records) == n_records
        assert again.total_time == total

    def test_callers_share_one_immutable_pair(self):
        trace_a, profile_a = run_point(BERT_TINY, TINY)
        trace_b, _ = run_point(BERT_TINY, TINY)
        assert trace_a is trace_b
        assert isinstance(trace_a.kernels, tuple)
        assert isinstance(profile_a.records, tuple)


class TestContentAddressing:
    def test_key_is_deterministic(self):
        cache = ResultCache()
        key = cache.key(BERT_TINY, TINY, DEVICE)
        assert key == cache.key(BERT_TINY, TINY, DEVICE)

    def test_key_changes_with_model(self):
        cache = ResultCache()
        other = BERT_TINY.scaled(num_layers=3)
        assert (cache.key(BERT_TINY, TINY, DEVICE)
                != cache.key(other, TINY, DEVICE))

    def test_key_changes_with_training(self):
        cache = ResultCache()
        other = dataclasses.replace(TINY, batch_size=4)
        assert (cache.key(BERT_TINY, TINY, DEVICE)
                != cache.key(BERT_TINY, other, DEVICE))

    def test_key_changes_with_device(self):
        cache = ResultCache()
        tweaked = dataclasses.replace(DEVICE, mem_bandwidth_gbps=999.0)
        assert (cache.key(BERT_TINY, TINY, DEVICE)
                != cache.key(BERT_TINY, TINY, tweaked))

    def test_key_changes_with_code_version(self, monkeypatch):
        cache = ResultCache()
        before = cache.key(BERT_TINY, TINY, DEVICE)
        monkeypatch.setattr(cache_module, "_code_fingerprint_cache",
                            "different-code-version")
        assert cache.key(BERT_TINY, TINY, DEVICE) != before


class TestDeviceFingerprintMemo:
    """``device_fingerprint`` is memoized per device object; equal devices
    still agree, copies differ, and dropped devices leave the table."""

    def test_separately_built_devices_agree(self):
        assert (cache_module.device_fingerprint(mi100())
                == cache_module.device_fingerprint(mi100()))

    def test_override_copy_gets_its_own_fingerprint(self):
        before = cache_module.device_fingerprint(DEVICE)
        copy = DEVICE.with_overrides(mem_bandwidth_gbps=999.0)
        assert cache_module.device_fingerprint(copy) != before
        assert cache_module.device_fingerprint(DEVICE) == before

    def test_transient_devices_are_evicted(self):
        gc.collect()
        before = len(cache_module._device_fingerprints)
        # Alive together, so no two share an id and each gets an entry.
        devices = [DEVICE.with_overrides(mem_bandwidth_gbps=1000.0 + i)
                   for i in range(1000)]
        fingerprints = {cache_module.device_fingerprint(device)
                        for device in devices}
        assert len(fingerprints) == 1000
        assert len(cache_module._device_fingerprints) >= before + 1000
        del devices
        gc.collect()
        assert len(cache_module._device_fingerprints) <= before


class TestGridKey:
    def test_generated_fresh_models_match_the_same_list(self):
        """A generator that builds (and drops) a distinct model per point
        must not alias two models whose ids CPython reuses."""
        layers = (2, 3, 2, 4, 3, 5)

        def pairs():
            for num_layers in layers:
                yield BERT_TINY.scaled(num_layers=num_layers), TINY

        cache = ResultCache()
        listed = [(BERT_TINY.scaled(num_layers=num_layers), TINY)
                  for num_layers in layers]
        assert cache.grid_key(pairs(), DEVICE) == cache.grid_key(listed,
                                                                 DEVICE)

    def test_any_single_point_change_changes_the_key(self):
        cache = ResultCache()
        points = [(BERT_TINY, dataclasses.replace(TINY, batch_size=batch))
                  for batch in (2, 4, 8)]
        keys = {cache.grid_key(points, DEVICE)}
        for index, (model, training) in enumerate(points):
            for changed in ((model.scaled(num_layers=3), training),
                            (model, dataclasses.replace(training,
                                                        seq_len=32))):
                edited = list(points)
                edited[index] = changed
                keys.add(cache.grid_key(edited, DEVICE))
        assert len(keys) == 1 + 2 * len(points)

    def test_keys_agree_across_interpreters_and_hash_seeds(self):
        """Disk entries are shared across processes, so no ``hash()`` or
        ``id()`` may reach key material."""
        script = (
            "from repro.experiments.points import POINT_REGISTRY\n"
            "from repro.hw.device import mi100\n"
            "from repro.runner.cache import ResultCache\n"
            "model, training = POINT_REGISTRY['tiny.ph1-b2-fp32']\n"
            "cache = ResultCache()\n"
            "print(cache.key(model, training, mi100()))\n"
            "print(cache.grid_key([(model, training)], mi100()))\n")
        from repro.experiments.points import POINT_REGISTRY

        model, training = POINT_REGISTRY["tiny.ph1-b2-fp32"]
        cache = ResultCache()
        expected = [cache.key(model, training, DEVICE),
                    cache.grid_key([(model, training)], DEVICE)]
        for seed in ("1", "2"):  # at least one differs from this process
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(repro.__file__).parents[1])}
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True,
                                 check=True, timeout=120).stdout.split()
            assert out == expected


class TestCodeFingerprint:
    """One digest over every source file keys every entry, so an edit in
    any package (``optim/`` included) misses instead of serving stale
    results."""

    def test_fingerprint_reads_every_package_source(self, monkeypatch):
        read: list[Path] = []
        original = Path.read_bytes

        def recording(path):
            read.append(path.resolve())
            return original(path)

        monkeypatch.setattr(cache_module, "_code_fingerprint_cache", None)
        monkeypatch.setattr(Path, "read_bytes", recording)
        cache_module.code_fingerprint()
        monkeypatch.undo()

        package_root = Path(repro.__file__).resolve().parent
        sources = {p.resolve() for p in package_root.rglob("*.py")}
        assert package_root / "optim" / "kernels.py" in sources
        assert sources <= set(read)

    def test_every_key_kind_rotates_with_the_fingerprint(self,
                                                         monkeypatch):
        cache = ResultCache()

        def keys():
            return (cache.experiment_key("fig3", "a description"),
                    cache.grid_key([(BERT_TINY, TINY)], DEVICE),
                    cache.key(BERT_TINY, TINY, DEVICE))

        before = keys()
        monkeypatch.setattr(cache_module, "_code_fingerprint_cache",
                            "different-code-version")
        after = keys()
        assert all(old != new for old, new in zip(before, after))


class TestDiskRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path / "rt")
        key = cache.experiment_key("fig3", "round trip")
        assert cache.get_payload(key) is None
        assert cache.stats.misses == 1

        payload = {"output": "table\n", "bands": None}
        cache.put_payload(key, payload)
        assert cache.get_payload(key) == payload
        assert cache.stats.hits == 1

    def test_survives_across_instances(self, tmp_path):
        root = tmp_path / "persist"
        first = ResultCache(root=root)
        key = first.grid_key([(BERT_TINY, TINY)], DEVICE)
        first.put_payload(key, {"rows": [{"gemm": 0.5}], "kernels": [7]})

        # A fresh instance (a later invocation) sees the entry.
        second = ResultCache(root=root)
        assert second.get_payload(key) is not None
        assert second.stats.hits == 1

    def test_corrupted_entry_falls_back_to_recompute(self, point_counters):
        with point_counters() as first:
            rows = _grid_summaries()
        assert first["cache_misses"] == 1

        cache = cache_module.get_cache()
        [entry] = cache.entries()
        entry.write_bytes(b"not a pickle")

        with point_counters() as second:
            assert _grid_summaries() == rows
        assert second["cache_misses"] == 1
        assert cache.stats.evictions == 1
        assert len(list((cache.root / cache_module.QUARANTINE_DIR)
                        .iterdir())) == 1
        # The recompute rewrote the entry; it loads cleanly now.
        with point_counters() as third:
            _grid_summaries()
        assert third["cache_hits"] == 1

    def test_truncated_pickle_falls_back(self, tmp_path):
        cache = ResultCache(root=tmp_path / "trunc")
        key = cache.experiment_key("fig3", "truncated")
        cache.put_payload(key, {"output": "x" * 500, "bands": None})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:64])
        assert cache.get_payload(key) is None
        assert cache.stats.evictions == 1

    def test_clear_and_info(self, tmp_path):
        cache = ResultCache(root=tmp_path / "mgmt")
        for batch in (2, 3):
            key = cache.grid_key(
                [(BERT_TINY, dataclasses.replace(TINY, batch_size=batch))],
                DEVICE)
            cache.put_payload(key, {"rows": [], "kernels": []})
        assert len(cache.entries()) == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []


class TestRunPointThroughCache:
    def test_cached_results_identical_to_fresh(self):
        trace_fresh, profile_fresh = run_point(BERT_TINY, TINY)
        clear_iteration_traces()
        trace_cached, profile_cached = run_point(BERT_TINY, TINY)
        assert trace_cached.kernels == trace_fresh.kernels
        assert [r.time_s for r in profile_cached.records] == pytest.approx(
            [r.time_s for r in profile_fresh.records])

    def test_grid_resolutions_are_counted_once_per_call(
            self, point_counters):
        from repro.grid.engine import grid_points, grid_summaries

        trainings = [TINY, dataclasses.replace(TINY, batch_size=4)]
        with point_counters() as cold:
            grid_summaries(grid_points(BERT_TINY, trainings))
        with point_counters() as warm:
            grid_summaries(grid_points(BERT_TINY, trainings))
        assert (cold["cache_misses"], cold["cache_hits"]) == (2, 0)
        assert (warm["cache_misses"], warm["cache_hits"]) == (0, 2)
        assert cold["points"] == warm["points"] == 2
        assert cold["kernels"] == warm["kernels"] == 2 * len(
            run_point(BERT_TINY, TINY)[0])


class TestProfileTotalTimeCache:
    def test_pickle_roundtrip_preserves_total(self):
        _, profile = run_point(BERT_TINY, TINY)
        total = profile.total_time
        clone = pickle.loads(pickle.dumps(profile))
        assert clone.total_time == pytest.approx(total)


class TestConcurrentAccess:
    """Thread-safety regression for the server's worker pool.

    Concurrent ``get_payload``/``put_payload`` on the *same* key must
    never tear an entry (atomic rename), never serve a partially
    written pickle, and never lose a stats increment (the counter
    lock).
    """

    def test_same_key_hammering_never_tears(self, tmp_path):
        import threading

        cache = ResultCache(root=tmp_path / "cc")
        key = "ab" + "0" * 62
        payload = {"rows": list(range(500)), "tag": "constant"}
        rounds, workers = 30, 8
        failures = []
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for _ in range(rounds):
                cache.put_payload(key, payload)
                loaded = cache.get_payload(key)
                # A miss is only legal before the first replace lands;
                # the barrier plus the leading put makes any miss after
                # our own write a torn-entry bug.
                if loaded != payload:
                    failures.append(loaded)

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        # Exactly one entry on disk, still loadable, and no evictions
        # (an eviction would mean a reader saw a corrupt entry).
        assert len(cache.entries()) == 1
        assert cache.stats.evictions == 0
        assert cache.stats.hits == rounds * workers

    def test_stats_increments_are_not_lost(self, tmp_path):
        import threading

        cache = ResultCache(root=tmp_path / "cc")
        reads, workers = 200, 8

        def work():
            for _ in range(reads):
                cache.get_payload("ff" + "1" * 62)  # always a miss

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.stats.misses == reads * workers
        assert cache.stats.hits == 0
