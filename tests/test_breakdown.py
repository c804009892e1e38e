"""Tests for repro.sim.breakdown."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.breakdown import Breakdown


def _breakdown(compute=10.0, serialized=4.0, overlapped=3.0,
               iteration=None) -> Breakdown:
    if iteration is None:
        iteration = compute + serialized  # fully hidden overlap
    return Breakdown(compute_time=compute, serialized_comm_time=serialized,
                     overlapped_comm_time=overlapped,
                     iteration_time=iteration)


class TestValidation:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError, match="compute_time"):
            Breakdown(compute_time=-1, serialized_comm_time=0,
                      overlapped_comm_time=0, iteration_time=0)


class TestDerivedQuantities:
    def test_fully_hidden_overlap(self):
        b = _breakdown()
        assert b.exposed_comm_time == 0.0
        assert b.hidden_comm_time == pytest.approx(3.0)
        assert b.critical_path_comm_time == pytest.approx(4.0)

    def test_exposed_overlap(self):
        b = _breakdown(iteration=16.0)  # 2s beyond the blocking chain
        assert b.exposed_comm_time == pytest.approx(2.0)
        assert b.hidden_comm_time == pytest.approx(1.0)
        assert b.critical_path_comm_time == pytest.approx(6.0)

    def test_fractions(self):
        b = _breakdown(compute=6.0, serialized=4.0, overlapped=0.0,
                       iteration=10.0)
        assert b.serialized_comm_fraction == pytest.approx(0.4)
        assert b.critical_comm_fraction == pytest.approx(0.4)

    def test_overlapped_pct_of_compute(self):
        b = _breakdown(compute=10.0, overlapped=5.0)
        assert b.overlapped_pct_of_compute == pytest.approx(0.5)

    def test_zero_iteration_fractions(self):
        b = Breakdown(0.0, 0.0, 0.0, 0.0)
        assert b.serialized_comm_fraction == 0.0
        assert b.critical_comm_fraction == 0.0
        assert b.overlapped_pct_of_compute == 0.0

    def test_comm_only_breakdown_is_infinite_ratio(self):
        b = Breakdown(compute_time=0.0, serialized_comm_time=0.0,
                      overlapped_comm_time=1.0, iteration_time=1.0)
        assert b.overlapped_pct_of_compute == float("inf")


class TestCombinators:
    def test_scaled_iteration(self):
        # Three identical regions: every component triples.
        base = _breakdown()
        b = Breakdown.combine(Breakdown.combine(base, base), base)
        assert b.compute_time == pytest.approx(30.0)
        assert b.iteration_time == pytest.approx(42.0)

    def test_scaled_preserves_fractions(self):
        base = _breakdown(iteration=16.0)
        scaled = Breakdown.combine(base, base)
        assert scaled.serialized_comm_fraction == pytest.approx(
            base.serialized_comm_fraction
        )
        assert scaled.critical_comm_fraction == pytest.approx(
            base.critical_comm_fraction
        )

    def test_combine_sums_components(self):
        combined = Breakdown.combine(_breakdown(), _breakdown())
        assert combined.compute_time == pytest.approx(20.0)
        assert combined.serialized_comm_time == pytest.approx(8.0)
        assert combined.iteration_time == pytest.approx(28.0)

    @given(compute=st.floats(min_value=0, max_value=100),
           serialized=st.floats(min_value=0, max_value=100),
           overlapped=st.floats(min_value=0, max_value=100),
           extra=st.floats(min_value=0, max_value=100))
    @settings(max_examples=50)
    def test_hidden_plus_exposed_equals_overlapped(self, compute, serialized,
                                                   overlapped, extra):
        b = Breakdown(compute_time=compute, serialized_comm_time=serialized,
                      overlapped_comm_time=overlapped,
                      iteration_time=compute + serialized + extra)
        assert b.hidden_comm_time + b.exposed_comm_time == pytest.approx(
            b.overlapped_comm_time
        )
