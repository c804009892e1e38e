"""Tests for repro.core.forecast (model-evolution extrapolation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import forecast
from repro.core.forecast import GrowthTrend, fit_exponential_trend
from repro.models import zoo


class TestGrowthTrend:
    def test_at_reference_year(self):
        trend = GrowthTrend(year0=2022, value0=100.0, annual_rate=2.0)
        assert trend.at(2022) == pytest.approx(100.0)
        assert trend.at(2024) == pytest.approx(400.0)
        assert trend.at(2021) == pytest.approx(50.0)

    def test_doubling_time(self):
        trend = GrowthTrend(year0=2022, value0=1.0, annual_rate=2.0)
        assert trend.at(2023) == pytest.approx(2 * trend.at(2022))

    def test_doubling_time_requires_growth(self):
        trend = GrowthTrend(year0=2022, value0=1.0, annual_rate=0.9)
        assert trend.at(2040) < trend.at(2022)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GrowthTrend(year0=2022, value0=0.0, annual_rate=2.0)


class TestFitting:
    def test_recovers_exact_exponential(self):
        points = [(2018 + i, 10.0 * 3.0 ** i) for i in range(5)]
        trend = fit_exponential_trend(points)
        assert trend.annual_rate == pytest.approx(3.0)
        assert trend.at(2018) == pytest.approx(10.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            fit_exponential_trend([(2020, 1.0)])

    def test_requires_distinct_years(self):
        with pytest.raises(ValueError, match="two years"):
            fit_exponential_trend([(2020, 1.0), (2020, 2.0)])

    def test_requires_positive_values(self):
        with pytest.raises(ValueError, match="positive"):
            fit_exponential_trend([(2020, 1.0), (2021, -1.0)])

    @given(rate=st.floats(min_value=1.1, max_value=5.0),
           base=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=25)
    def test_fit_is_exact_on_noiseless_data(self, rate, base):
        points = [(2015 + i, base * rate ** i) for i in range(6)]
        trend = fit_exponential_trend(points)
        assert trend.annual_rate == pytest.approx(rate, rel=1e-6)


class TestZooTrends:
    def test_hidden_grows_fast(self):
        # BERT 1K (2018) -> PaLM 18K (2022): roughly 2x/year.
        rate = forecast.hidden_trend().annual_rate
        assert 1.5 <= rate <= 3.0

    def test_seq_len_grows_slower_than_hidden(self):
        assert forecast.seq_len_trend().annual_rate < (
            forecast.hidden_trend().annual_rate
        )

    def test_params_trend_spans_reported_growth(self):
        trend = fit_exponential_trend(
            [(zoo.MODEL_ZOO[name].year, zoo.REPORTED_SIZES_B[name] * 1e9)
             for name in zoo.ZOO_ORDER])
        assert trend.annual_rate > 3.0  # the paper's ~1000x over 4 years


class TestForecastModels:
    def test_rejects_past_years(self):
        with pytest.raises(ValueError, match="after"):
            forecast.forecast_model(2018)

    def test_capped_at_studied_envelope(self):
        model = forecast.forecast_model(2027)
        assert model.hidden <= forecast.MAX_FORECAST_HIDDEN
        assert model.seq_len <= forecast.MAX_FORECAST_SEQ_LEN

    def test_uncapped_follows_raw_trend(self):
        raw = forecast.forecast_model(2027, cap_to_studied_range=False)
        assert raw.hidden > forecast.MAX_FORECAST_HIDDEN

    def test_shapes_are_well_formed(self):
        for year in (2023, 2025, 2027):
            model = forecast.forecast_model(year)
            assert model.hidden % model.num_heads == 0
            assert model.head_dim == 128
            assert model.seq_len % 64 == 0

    def test_layer_count_grows(self):
        near = forecast.forecast_model(2023)
        far = forecast.forecast_model(2027)
        assert far.num_layers > near.num_layers

    def test_forecast_larger_than_newest_zoo_model(self):
        palm = zoo.MODEL_ZOO["PaLM"]
        model = forecast.forecast_model(2024)
        assert model.total_params() > palm.total_params()

    def test_series(self):
        series = forecast.forecast_series(2023, 2025)
        assert [m.year for m in series] == [2023, 2024, 2025]

    def test_series_rejects_empty_range(self):
        with pytest.raises(ValueError, match="end_year"):
            forecast.forecast_series(2025, 2023)
