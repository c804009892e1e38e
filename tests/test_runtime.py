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

    def test_keys_are_pinned(self):
        """The hex computed while the records were still dataclasses: a
        record or canonicalization change that moved these would orphan
        every existing ``--cache-dir`` store."""
        from repro.core.evolution import HardwareScenario, PAPER_SCENARIOS
        from repro.hardware.timing import DEFAULT_TIMING

        session_fp = Session().fingerprint
        assert session_fp == "70cf332ce6b519cd"
        assert cache_key(
            mi210_node(), DEFAULT_TIMING,
            ModelConfig("probe", 4096, 2048, batch=2),
            HardwareScenario("2x flop-vs-bw", 2.0),
        ) == ("9dcfc7178841a4fb81cef0a7f989eaba"
              "0c67084697fecfd3041c66f26b672239")
        assert cache_key(ParallelConfig(tp=4, dp=2), DEFAULT_BASELINE,
                         PAPER_SCENARIOS) == (
            "7e0b7112eef94a13bde027a80b7fbb42"
            "cd153c35eeb00e8e6e602f80e33395e1")
        assert cache_key("experiment-result", CACHE_VERSION, "figure-10",
                         session_fp) == (
            "c8ad05ae32c0743f219bce3144e237bc"
            "1dede3a81f1ce04ff627a1e81ef95654")
        assert fingerprint("suite", mi210_node(), DEFAULT_BASELINE,
                           DEFAULT_TIMING, 32 * 1024 * 1024,
                           None) == "60a0ded33ebcb1e6"


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

    def test_memory_evicts_least_recently_used(self, monkeypatch):
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 3)
        cache = ResultCache()
        for key in ("a", "b", "c"):
            cache.put(key, key)
        assert cache.get("a") == "a"  # a is now the most recent
        assert "b" in cache  # contains() leaves the order alone
        cache.put("d", "d")  # evicts b, the least recently used
        assert cache.info()["memory_entries"] == 3
        assert cache.get("b") is None
        cache.put("c", "c2")  # a rewrite refreshes c
        cache.put("e", "e")  # evicts a
        assert [cache.get(key) for key in ("a", "c", "d", "e")] == [
            None, "c2", "d", "e"]

    def test_disk_entry_evicted_from_memory_reads_back(self, tmp_path,
                                                       monkeypatch):
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = ResultCache(cache_dir=tmp_path)
        for index in range(5):
            cache.put(f"k{index}", {"value": index})
        info = cache.info()
        assert info["memory_entries"] == 2
        assert info["disk_entries"] == 5
        assert cache.get("k0") == {"value": 0}  # from disk
        assert cache.stats.hits == 1
        assert cache.info()["memory_entries"] == 2  # promoted, capped


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

    def test_runner_gets_the_session_only_when_it_takes_one(self, session):
        import functools

        def takes(cluster=None, session=None):
            return session

        def keyword_only(*, session=None):
            return session

        def declines(cluster=None, **kwargs):
            return kwargs

        assert session._invoke(takes) is session
        assert session._invoke(keyword_only) is session
        assert session._invoke(declines) == {}
        assert session._invoke(functools.partial(declines, 1)) == {}


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

    def test_explicit_session_overrides_default(self, session,
                                                monkeypatch):
        traces = []
        run_execute = session.execute

        def recording_execute(trace, *args):
            traces.append(trace)
            return run_execute(trace, *args)

        monkeypatch.setattr(session, "execute", recording_execute)
        result = fig10_serialized.run(session=session)
        assert result.experiment_id == "figure-10"
        # The sweep's ground truth ran through this session.
        assert len(traces) == len(result.rows)

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
        result = Session(check=True).run("figure-10", use_cache=False)
        assert result.meta.checked is True
        assert "checked" in result.meta.describe()
        assert Session().run("figure-10",
                             use_cache=False).meta.checked is False

    @pytest.mark.parametrize("experiment_id", ["figure-11", "table-3"])
    def test_run_meta_unchecked_when_no_validator_ran(self, experiment_id):
        """Figure 11 times its overlap ROI in closed form and Table 3
        times nothing, so no validator runs even with checking on."""
        result = Session(check=True).run(experiment_id, use_cache=False)
        assert result.meta.checked is False
        assert "checked" not in result.meta.describe()


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
        swept = sweeps.overlap_sweep(points, cluster)
        pointwise = [sweeps.overlap_ratio(h, slb, cluster)
                     for h, slb in points]
        assert swept == pointwise
