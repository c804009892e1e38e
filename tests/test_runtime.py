"""Tests for the shared runtime layer (session, cache, keys)."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.projection import DEFAULT_BASELINE
from repro.experiments import registry
from repro.experiments.base import ExperimentResult, RunMeta
from repro.experiments import fig10_serialized, fig15_opmodel, sweeps
from repro.hardware.cluster import mi210_node, multi_node_cluster
from repro.models.trace import layer_trace
from repro.runtime import (
    CACHE_VERSION,
    ResultCache,
    Session,
    cache_key,
    fingerprint,
    get_session,
    set_session,
)
from repro.sim.executor import execute_trace


def _put_same_key(cache_dir, start, rounds):
    """Writer process: store one payload under one key, many times."""
    cache = ResultCache(cache_dir=cache_dir)
    start.wait(timeout=60)
    for _ in range(rounds):
        cache.put("k", {"value": 7})


@pytest.fixture()
def session():
    return Session()


@pytest.fixture()
def fresh_default_session():
    """Isolate tests that exercise the process-wide default session."""
    previous = set_session(None)
    yield get_session()
    set_session(previous)


class TestKeys:
    def test_equal_configs_equal_keys(self):
        a = ModelConfig(name="m", hidden=1024, seq_len=512, batch=2,
                        num_heads=16)
        b = ModelConfig(name="m", hidden=1024, seq_len=512, batch=2,
                        num_heads=16)
        assert cache_key(a) == cache_key(b)

    def test_field_change_changes_key(self):
        a = ModelConfig(name="m", hidden=1024, seq_len=512, num_heads=16)
        b = ModelConfig(name="m", hidden=2048, seq_len=512, num_heads=16)
        assert cache_key(a) != cache_key(b)

    def test_cluster_scaling_changes_key(self):
        cluster = mi210_node()
        assert cache_key(cluster) != cache_key(cluster.scaled(
            compute_scale=2.0))

    def test_fingerprint_is_short_hex(self):
        fp = fingerprint(mi210_node())
        assert len(fp) == 16
        int(fp, 16)  # parses as hex

    def test_nested_structures(self):
        key = cache_key({"b": 2, "a": 1}, [1, 2, (3, 4)], None, True)
        assert key == cache_key({"a": 1, "b": 2}, [1, 2, (3, 4)], None,
                                True)


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"value": [1.5, 2.5]})
        assert cache.get("k") == {"value": [1.5, 2.5]}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_disk_roundtrip(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", {"value": 3.25})
        reopened = ResultCache(cache_dir=tmp_path)
        assert reopened.get("k") == {"value": 3.25}

    def test_version_tag_invalidates(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put("k", {"value": 1})
        newer = ResultCache(cache_dir=tmp_path, version="999")
        assert newer.get("k") is None

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None

    def test_concurrent_same_key_writers(self, tmp_path):
        # Two processes racing on one key must not steal each other's
        # tmp file (a shared tmp name made the loser's os.replace fail).
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(2)
        writers = [context.Process(target=_put_same_key,
                                   args=(str(tmp_path), start, 300))
                   for _ in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert not writer.is_alive()
            assert writer.exitcode == 0
        assert ResultCache(cache_dir=tmp_path).get("k") == {"value": 7}
        assert not list(tmp_path.glob("*.tmp"))

    def test_none_payload_memory_hit(self):
        # A cached None is a legitimate payload, not a miss.
        cache = ResultCache()
        cache.put("k", None)
        sentinel = object()
        assert cache.get("k", sentinel) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_none_payload_disk_hit(self, tmp_path):
        # Regression: the disk path used to report a stored null payload
        # as a miss while the memory path reported a hit.
        ResultCache(cache_dir=tmp_path).put("k", None)
        reopened = ResultCache(cache_dir=tmp_path)
        sentinel = object()
        assert reopened.get("k", sentinel) is None
        assert reopened.stats.hits == 1
        assert reopened.stats.misses == 0

    def test_none_payload_version_roundtrip(self, tmp_path):
        ResultCache(cache_dir=tmp_path).put("k", None)
        newer = ResultCache(cache_dir=tmp_path, version="999")
        assert newer.get("k", "MISS") == "MISS"

    def test_get_default_on_miss(self):
        cache = ResultCache()
        assert cache.get("absent", {"fallback": True}) == {
            "fallback": True}

    def test_contains_protocol(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("mem", 1)
        ResultCache(cache_dir=tmp_path).put("disk", None)
        assert cache.contains("mem")
        assert "disk" in cache  # found on disk, even with a None payload
        assert "absent" not in cache

    def test_contains_leaves_stats_alone(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", 1)
        before = cache.stats.as_dict()
        assert "k" in cache and "absent" not in cache
        assert cache.stats.as_dict() == before

    def test_legacy_envelope_without_presence_flag(self, tmp_path):
        # Envelopes written before the presence flag existed still read
        # as hits when they carry a payload entry.
        (tmp_path / "old.json").write_text(
            json.dumps({"version": CACHE_VERSION, "key": "old",
                        "payload": {"value": 5}}),
            encoding="utf-8",
        )
        assert ResultCache(cache_dir=tmp_path).get("old") == {"value": 5}

    def test_clear_removes_memory_and_disk(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k1", {"value": 1})
        cache.put("k2", {"value": 2})
        assert cache.clear() > 0
        assert cache.get("k1") is None
        assert list(tmp_path.glob("*.json")) == []

    def test_info_shape(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k", {"value": 1})
        info = cache.info()
        assert info["version"] == CACHE_VERSION
        assert info["disk_entries"] == 1
        assert info["memory_entries"] == 1
        assert info["cache_dir"] == str(tmp_path)

    def test_memory_only_info(self):
        info = ResultCache().info()
        assert info["cache_dir"] is None
        assert info["disk_entries"] == 0


class TestSuiteMemoization:
    def test_fits_at_most_once_per_key(self, session):
        first = session.suite()
        second = session.suite()
        assert first is second
        assert session.suite_fit_count == 1
        assert all(n == 1 for n in session.suite_fits().values())

    def test_distinct_baselines_distinct_fits(self, session):
        session.suite()
        other = ModelConfig(name="bigger", hidden=2048, seq_len=512,
                            batch=4, num_heads=16)
        session.suite(baseline_model=other)
        assert session.suite_fit_count == 2

    def test_distinct_clusters_distinct_fits(self, session):
        session.suite()
        session.suite(cluster=multi_node_cluster())
        assert session.suite_fit_count == 2

    def test_experiments_share_one_default_fit(self, session):
        fig15_opmodel.run(session=session)
        session.run("speedup-4.3.8", use_cache=False)
        session.run("validation-projection", use_cache=False)
        assert session.suite_fits()[next(iter(session.suite_fits()))] == 1
        # All three experiments fit the same (cluster, baseline) key once.
        assert session.suite_fit_count == 1


class TestTraceDurations:
    def test_bit_identical_to_execute_trace(self, session):
        model = ModelConfig(name="t", hidden=2048, seq_len=512, batch=1,
                            num_heads=16)
        trace = layer_trace(model, ParallelConfig(tp=4, dp=2))
        fresh = execute_trace(trace, session.cluster)
        cached_cold = session.execute(trace)
        cached_warm = session.execute(trace)
        assert cached_cold.breakdown == fresh.breakdown
        assert cached_warm.breakdown == fresh.breakdown

    def test_durations_survive_disk_roundtrip(self, tmp_path):
        model = ModelConfig(name="t", hidden=1024, seq_len=512, batch=1,
                            num_heads=16)
        trace = layer_trace(model, ParallelConfig(tp=2, dp=1))
        first = Session(cache_dir=tmp_path)
        cold = first.trace_durations(trace)
        second = Session(cache_dir=tmp_path)
        warm = second.trace_durations(trace)
        assert warm == cold  # float-exact through JSON


class TestSessionRun:
    def test_cache_hit_bit_identical(self, session):
        cold = session.run("figure-10")
        warm = session.run("figure-10")
        assert cold.meta.cache == "miss"
        assert warm.meta.cache == "hit"
        assert warm == cold  # rows/headers/notes equality ignores meta
        assert warm.to_text() == cold.to_text()
        assert warm.to_json() == cold.to_json()

    def test_no_cache_bypasses(self, session):
        first = session.run("table-3", use_cache=False)
        second = session.run("table-3", use_cache=False)
        assert first.meta.cache == "off"
        assert second.meta.cache == "off"

    def test_meta_surfaced_on_request(self, session):
        result = session.run("table-3")
        assert "run:" not in result.to_text()
        assert "run:" in result.to_text(include_meta=True)
        assert "meta" not in json.loads(result.to_json())
        meta = json.loads(result.to_json(include_meta=True))["meta"]
        assert meta["cache"] == "miss"
        assert meta["session"] == session.fingerprint

    def test_disk_cache_survives_sessions(self, tmp_path):
        cold = Session(cache_dir=tmp_path).run("table-3")
        warm = Session(cache_dir=tmp_path).run("table-3")
        assert warm.meta.cache == "hit"
        assert warm == cold

    def test_version_tag_invalidates_results(self, tmp_path):
        Session(cache_dir=tmp_path).run("table-3")
        stale = Session(cache=ResultCache(cache_dir=tmp_path,
                                          version="999"))
        assert stale.run("table-3").meta.cache == "miss"

    def test_unknown_experiment(self, session):
        with pytest.raises(KeyError, match="unknown experiment"):
            session.run("figure-99")


class TestRunAll:
    def test_warm_run_all_replays_hits(self, session):
        session.run_all()
        warm = session.run_all()
        assert all(r.meta.cache == "hit" for r in warm)

    def test_subset_preserves_given_order(self, session):
        ids = ["figure-11", "table-2", "figure-10"]
        results = session.run_all(experiment_ids=ids)
        assert [r.experiment_id for r in results] == ids

    def test_registry_run_all_uses_shared_session(
            self, fresh_default_session):
        results = registry.run_all()
        assert [r.experiment_id for r in results] == list(
            registry.EXPERIMENTS)
        warm = registry.run_all()
        assert all(r.meta.cache == "hit" for r in warm)
        assert warm == results


class TestExperimentResultMeta:
    def test_meta_excluded_from_equality(self):
        result = ExperimentResult(experiment_id="x", title="t",
                                  headers=("a",), rows=((1,),))
        tagged = result.with_meta(RunMeta(wall_time_s=1.0, cache="miss",
                                          session="abc"))
        assert tagged == result

    def test_from_dict_roundtrip(self):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=("a", "b"),
            rows=((1, "s"), (2.5, "u")), notes=("n",),
        )
        replay = ExperimentResult.from_dict(
            json.loads(result.to_json()))
        assert replay == result
        assert replay.to_text() == result.to_text()


class TestSessionDefaults:
    def test_module_run_uses_shared_suite(self, fresh_default_session):
        fig15_opmodel.run()
        fig15_opmodel.run()
        assert fresh_default_session.suite_fit_count == 1

    def test_explicit_session_overrides_default(self, session):
        result = fig10_serialized.run(session=session)
        assert result.experiment_id == "figure-10"
        # The sweep's per-trace durations landed in this session's cache.
        assert session.cache.stats.writes > 0

    def test_fingerprint_tracks_cluster(self):
        assert Session().fingerprint == Session().fingerprint
        assert Session().fingerprint != Session(
            cluster=multi_node_cluster()).fingerprint

    def test_cache_and_cache_dir_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Session(cache=ResultCache(), cache_dir=tmp_path)


class TestSessionCheck:
    def test_check_defaults_off(self, session):
        assert session.check is False

    def test_env_enables_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert Session().check is True

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert Session(check=False).check is False

    def test_checked_execution_matches_unchecked(self, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=2))
        plain = Session().execute(trace)
        checked = Session(check=True).execute(trace)
        assert checked.breakdown == plain.breakdown

    def test_run_meta_records_checked(self):
        result = Session(check=True).run("table-3", use_cache=False)
        assert result.meta.checked is True
        assert "checked" in result.meta.describe()
        assert Session().run("table-3",
                             use_cache=False).meta.checked is False


class TestSweepHelpers:
    def test_serialized_sweep_matches_pointwise(self, session):
        cluster = session.cluster
        configs = [(4096, 1024, tp) for tp in (4, 8, 16)]
        swept = sweeps.serialized_sweep(configs, cluster, session=session)
        pointwise = [sweeps.serialized_fraction(h, sl, tp, cluster)
                     for h, sl, tp in configs]
        assert swept == pointwise

    def test_overlap_sweep_matches_pointwise(self, session):
        cluster = session.cluster
        points = [(2048, 1024), (4096, 2048)]
        swept = sweeps.overlap_sweep(points, cluster, session=session)
        pointwise = [sweeps.overlap_ratio(h, slb, cluster)
                     for h, slb in points]
        assert swept == pointwise
