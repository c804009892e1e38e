"""Model-evolution forecasting (Section 4.2.1, Step 1; Figure 6's
"expected to continue" projections).

The paper extrapolates the last five years of hyperparameter growth to
project the next five: hidden dimension and sequence length have grown
roughly exponentially (Table 2), device memory roughly linearly.  This
module fits those trends from the model zoo and synthesizes *future
Transformer configurations* -- the inputs the empirical strategy then
analyzes.

Fitting is a least-squares log-linear regression (exponential growth) on
the zoo's (year, value) points; no randomness, fully reproducible.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import LayerType, ModelConfig
from repro.models import zoo

__all__ = [
    "GrowthTrend",
    "MAX_FORECAST_HIDDEN",
    "MAX_FORECAST_SEQ_LEN",
    "fit_exponential_trend",
    "hidden_trend",
    "seq_len_trend",
    "forecast_model",
    "forecast_series",
]


class GrowthTrend(Frozen):
    """An exponential growth trend ``value = a * rate**(year - year0)``.

    Attributes:
        year0: Reference year of the fit.
        value0: Fitted value at the reference year.
        annual_rate: Multiplicative growth per year.
    """

    __slots__ = ("year0", "value0", "annual_rate")

    year0: int
    value0: float
    annual_rate: float

    def __init__(self, year0: int, value0: float, annual_rate: float) -> None:
        self._set(year0=year0, value0=value0, annual_rate=annual_rate)
        if self.value0 <= 0 or self.annual_rate <= 0:
            raise ValueError("value0 and annual_rate must be positive")

    def at(self, year: int) -> float:
        """Trend value at ``year`` (interpolates and extrapolates)."""
        return self.value0 * self.annual_rate ** (year - self.year0)


def fit_exponential_trend(points: Sequence[Tuple[int, float]]) -> GrowthTrend:
    """Least-squares fit of ``log(value)`` against ``year``.

    Args:
        points: (year, value) observations; at least two distinct years.

    Raises:
        ValueError: on fewer than two points, non-positive values, or all
            observations in the same year.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit a trend")
    if any(value <= 0 for _, value in points):
        raise ValueError("trend values must be positive")
    years = [year for year, _ in points]
    if len(set(years)) < 2:
        raise ValueError("need observations from at least two years")
    logs = [math.log(value) for _, value in points]
    n = len(points)
    mean_year = sum(years) / n
    mean_log = sum(logs) / n
    denom = sum((y - mean_year) ** 2 for y in years)
    slope = sum((y - mean_year) * (l - mean_log)
                for y, l in zip(years, logs)) / denom
    intercept = mean_log - slope * mean_year
    year0 = max(years)
    return GrowthTrend(
        year0=year0,
        value0=math.exp(intercept + slope * year0),
        annual_rate=math.exp(slope),
    )


def _zoo_points(attribute: str) -> List[Tuple[int, float]]:
    return [(zoo.MODEL_ZOO[name].year,
             float(getattr(zoo.MODEL_ZOO[name], attribute)))
            for name in zoo.ZOO_ORDER]


def hidden_trend() -> GrowthTrend:
    """Hidden-dimension growth fitted from the model zoo (Table 2)."""
    return fit_exponential_trend(_zoo_points("hidden"))


def seq_len_trend() -> GrowthTrend:
    """Sequence-length growth fitted from the model zoo."""
    return fit_exponential_trend(_zoo_points("seq_len"))


def _round_to(value: float, multiple: int) -> int:
    return max(multiple, int(round(value / multiple)) * multiple)


#: The paper's studied envelope (Table 3 maxima): raw exponential
#: extrapolation quickly exceeds what any system could train, so
#: forecasts saturate here by default -- exactly how the paper bounds its
#: own "next five years" projections.
MAX_FORECAST_HIDDEN = 65536
MAX_FORECAST_SEQ_LEN = 8192


def forecast_model(
    year: int,
    batch: int = 1,
    head_dim: int = 128,
    name: Optional[str] = None,
    cap_to_studied_range: bool = True,
) -> ModelConfig:
    """Synthesize a plausible future Transformer for ``year``.

    Hidden and sequence dimensions follow the fitted zoo trends (rounded
    to hardware-friendly multiples); layer count follows the zoo's roughly
    linear layer growth; batch defaults to 1, the memory-squeezed regime
    the paper expects for future models (Section 3.5).

    Args:
        cap_to_studied_range: Saturate H and SL at the paper's Table 3
            maxima (64K / 8K).  Disable to see the raw trend.

    Raises:
        ValueError: for years at or before the zoo's first model (there
            is nothing to extrapolate backwards to).
    """
    first_year = min(zoo.MODEL_ZOO[n].year for n in zoo.ZOO_ORDER)
    if year <= first_year:
        raise ValueError(f"forecast year must be after {first_year}")
    hidden = _round_to(hidden_trend().at(year), head_dim)
    seq_len = _round_to(seq_len_trend().at(year), 64)
    if cap_to_studied_range:
        hidden = min(hidden, MAX_FORECAST_HIDDEN)
        seq_len = min(seq_len, MAX_FORECAST_SEQ_LEN)
    # Layer counts grew ~12/year across the zoo (24 in 2018 -> 118 in 2022).
    last = zoo.MODEL_ZOO[zoo.ZOO_ORDER[-1]]
    num_layers = max(1, last.num_layers + 12 * (year - last.year))
    num_heads = max(1, hidden // head_dim)
    return ModelConfig(
        name=name or f"forecast-{year}",
        hidden=hidden,
        seq_len=seq_len,
        batch=batch,
        num_layers=num_layers,
        num_heads=num_heads,
        layer_type=LayerType.DECODER,
        year=year,
    )


def forecast_series(
    start_year: int = 2023,
    end_year: int = 2027,
    batch: int = 1,
) -> List[ModelConfig]:
    """Future models for each year in [start_year, end_year].

    Raises:
        ValueError: if the range is empty.
    """
    if end_year < start_year:
        raise ValueError("end_year must be >= start_year")
    return [forecast_model(year, batch=batch)
            for year in range(start_year, end_year + 1)]
