"""Tests for repro.sim.profiler (rocProf stand-in)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.trace import layer_trace
from repro.sim.executor import op_duration
from repro.sim.profiler import KernelRecord, Profile, profile_trace


def _model() -> ModelConfig:
    return ModelConfig(name="m", hidden=1024, seq_len=512, batch=2,
                       num_heads=16)


TP4_DP2 = ParallelConfig(tp=4, dp=2)


class TestKernelRecord:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            KernelRecord(name="x", category="gemm", duration=-1.0, meta={})

    def test_meta_coerced_to_dict(self):
        record = KernelRecord(name="x", category="gemm", duration=1.0,
                              meta={"m": 2})
        assert record.meta == {"m": 2}


class TestProfileTrace:
    def test_one_record_per_op(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        profile = profile_trace(trace, cluster)
        assert len(profile) == len(trace)

    def test_durations_match_isolated_timing(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        profile = profile_trace(trace, cluster)
        for op, record in zip(trace.ops, profile.records):
            assert record.duration == op_duration(op, trace, cluster)
            assert record.name == op.name

    def test_gemm_records_carry_shape_meta(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        profile = profile_trace(trace, cluster)
        record = profile.first("attn.qkv")
        assert record.category == "gemm"
        assert set(record.meta) == {"m", "n", "k", "batch"}

    def test_comm_records_carry_group_meta(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        record = profile_trace(trace, cluster).first("fc.ar_fwd")
        assert record.category == "all-reduce"
        assert record.meta["group_size"] == 4

    def test_elementwise_records_use_kind_category(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        record = profile_trace(trace, cluster).first("attn.softmax")
        assert record.category == "softmax"
        assert record.meta == {"elements": 2 * 4 * 512 * 512}


class TestProfileQueries:
    @pytest.fixture()
    def profile(self, cluster) -> Profile:
        return profile_trace(layer_trace(_model(), TP4_DP2), cluster)

    def test_total_time_is_sum(self, profile):
        assert profile.total_time == pytest.approx(
            sum(r.duration for r in profile.records)
        )

    def test_by_category_partitions_total(self, profile):
        shares = [share for _, _, share in profile.hotspots(len(profile))]
        assert sum(shares) == pytest.approx(1.0)

    def test_categories_unique_in_first_seen_order(self, profile):
        # Records follow trace order: a layer starts with its layernorm.
        assert profile.records[0].category == "layernorm"

    def test_filter_by_category(self, profile):
        assert any(r.category == "gemm" for r in profile)

    def test_filter_by_name(self, profile):
        assert profile.first("fc.fc1").name == "fc.fc1"

    def test_filter_by_predicate(self, profile):
        assert {r.phase for r in profile} == {"forward", "backward"}

    def test_filters_compose(self, profile):
        forward_gemms = [r for r in profile
                         if r.category == "gemm" and r.phase == "forward"]
        assert len(forward_gemms) == 6  # six forward GEMMs per layer

    def test_first_raises_for_unknown_name(self, profile):
        with pytest.raises(KeyError, match="nonexistent"):
            profile.first("nonexistent")

    def test_hotspots_ranked_and_aggregated(self, profile):
        spots = profile.hotspots(5)
        assert len(spots) == 5
        durations = [seconds for _, seconds, _ in spots]
        assert durations == sorted(durations, reverse=True)
        # Shares are fractions of the whole profile.
        assert all(0 < share <= 1 for _, _, share in spots)

    def test_hotspots_cover_everything_when_n_large(self, profile):
        spots = profile.hotspots(1000)
        assert sum(share for _, _, share in spots) == pytest.approx(1.0)

    def test_hotspots_rejects_bad_n(self, profile):
        with pytest.raises(ValueError, match="n must be"):
            profile.hotspots(0)
