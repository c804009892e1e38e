"""Model-scaling and memory-capacity trends (Sections 3.5 and 4.3.2).

Three trend analyses from the paper live here:

* **Figure 6** -- model memory demand (using the paper's ``H * SL`` proxy
  and parameter counts) versus device memory capacity over time.  Models
  scale ~1000x while per-device memory scales ~5x, forcing smaller batch
  sizes and larger tensor-parallel degrees.
* **Figure 9(b)** -- the required tensor-parallel degree for a model:
  ``TP = base_TP * (p / s)`` where ``p`` is the model-size ratio to the
  Megatron-LM BERT 3.9B anchor (the first publicly known TP-trained
  Transformer, with TP = 8) and ``s`` is the device-memory-capacity scaling
  over the same period.  The paper finds ``p/s`` of ~40-60x for the largest
  models, i.e. required TP of roughly 250-550.
* **Figure 7** -- the historical batch-size and TP assignments that turn
  the model zoo into the normalized edge/slack series.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models import zoo

__all__ = [
    "DEVICE_MEMORY_GB_BY_YEAR",
    "HISTORICAL_BATCH",
    "device_memory_gb",
    "memory_demand_proxy",
    "model_size_params",
    "tp_scale_factor",
    "required_tp",
    "round_up_pow2",
    "MemoryGapRow",
    "memory_gap_series",
    "TpScalingRow",
    "tp_scaling_series",
    "zoo_training_setups",
]

#: Flagship accelerator HBM capacity by year (GB): P100 -> V100 -> V100-32G
#: -> A100-40G -> A100-80G.  The paper's point is the *linear* growth of
#: this series against exponential model growth.
DEVICE_MEMORY_GB_BY_YEAR: Dict[int, float] = {
    2016: 12.0,
    2017: 16.0,
    2018: 16.0,
    2019: 32.0,
    2020: 40.0,
    2021: 80.0,
    2022: 80.0,
}

#: Per-device (micro-)batch sizes used historically; the slide toward B = 1
#: for the largest models is what erodes compute's slack (Section 3.5,
#: Figure 7).  MT-NLG and PaLM already train with B = 1.
HISTORICAL_BATCH: Dict[str, int] = {
    "BERT": 16,
    "T5": 8,
    "GPT-2": 8,
    "Megatron-LM": 4,
    "T-NLG": 2,
    "GPT-3": 2,
    "MT-NLG": 1,
    "PaLM": 1,
}


def device_memory_gb(year: int) -> float:
    """Device memory capacity for ``year``, extrapolating linearly outside
    the recorded range (capacity grows ~16 GB/yr at the trend's tail)."""
    years = sorted(DEVICE_MEMORY_GB_BY_YEAR)
    if year in DEVICE_MEMORY_GB_BY_YEAR:
        return DEVICE_MEMORY_GB_BY_YEAR[year]
    first, last = years[0], years[-1]
    if year < first:
        return DEVICE_MEMORY_GB_BY_YEAR[first]
    # Linear extrapolation from the overall recorded slope.
    slope = (DEVICE_MEMORY_GB_BY_YEAR[last] - DEVICE_MEMORY_GB_BY_YEAR[first]) / (
        last - first
    )
    return DEVICE_MEMORY_GB_BY_YEAR[last] + slope * (year - last)


def memory_demand_proxy(model: ModelConfig) -> int:
    """The paper's ``H * SL`` proxy for a model's memory requirement.

    ``H`` scaling grows parameters quadratically and ``SL`` scaling grows
    activations linearly; their product tracks total memory pressure
    (Section 3.5).
    """
    return model.hidden * model.seq_len


def model_size_params(model: ModelConfig) -> float:
    """A model's parameter count, preferring the published figure.

    Zoo models use the paper-reported sizes (Table 2) -- our layer-stack
    counting undercounts models with non-standard blocks (T5's huge FC
    expansion, PaLM's multi-query attention).  Unknown models fall back to
    the computed layer-stack count.
    """
    reported = zoo.REPORTED_SIZES_B.get(model.name)
    if reported is not None:
        return reported * 1e9
    if model.name == zoo.MEGATRON_LM_BERT.name:
        return 3.9e9
    return float(model.total_params())


def tp_scale_factor(model: ModelConfig,
                    anchor: Optional[ModelConfig] = None) -> float:
    """The ``p / s`` TP-scaling factor of Figure 9(b).

    ``p`` is the model's parameter count relative to the anchor's, and
    ``s`` is the device-memory-capacity growth between the anchor's year
    and the model's year.

    Raises:
        ValueError: if either model lacks a publication year.
    """
    anchor = anchor or zoo.MEGATRON_LM_BERT
    if model.year is None or anchor.year is None:
        raise ValueError("both model and anchor need a publication year")
    p = model_size_params(model) / model_size_params(anchor)
    s = device_memory_gb(model.year) / device_memory_gb(anchor.year)
    return p / s


def required_tp(
    model: ModelConfig,
    anchor: Optional[ModelConfig] = None,
    base_tp: int = zoo.MEGATRON_LM_BERT_TP,
    max_tp: Optional[int] = None,
) -> int:
    """Estimated tensor-parallel degree a model needs (Section 4.3.2).

    ``TP = base_TP * (p / s)`` rounded up to a power of two (device groups
    are powers of two in practice), floored at 1, and optionally capped at
    ``max_tp`` -- the paper studies TP only up to 256 because pipeline
    parallelism and interconnect limits bound realizable TP degrees
    (Table 3).
    """
    raw = base_tp * tp_scale_factor(model, anchor)
    tp = max(1, round_up_pow2(raw))
    if max_tp is not None:
        tp = min(tp, max_tp)
    return tp


def round_up_pow2(value: float) -> int:
    """Smallest power of two >= ``value`` (>= 1)."""
    if value <= 1:
        return 1
    return 1 << math.ceil(math.log2(value))


class MemoryGapRow(Frozen):
    """One model's entry in the Figure 6 demand-vs-capacity comparison.

    All normalized fields are relative to the first (oldest) model in the
    series, mirroring the figure's normalized axes.
    """

    __slots__ = ("model", "year", "demand_proxy", "params", "capacity_gb",
                 "demand_norm", "params_norm", "capacity_norm")

    model: str
    year: int
    demand_proxy: int
    params: int
    capacity_gb: float
    demand_norm: float
    params_norm: float
    capacity_norm: float

    def __init__(self, model: str, year: int, demand_proxy: int, params: int,
                 capacity_gb: float, demand_norm: float, params_norm: float,
                 capacity_norm: float) -> None:
        self._set(model=model, year=year, demand_proxy=demand_proxy,
                  params=params, capacity_gb=capacity_gb,
                  demand_norm=demand_norm, params_norm=params_norm,
                  capacity_norm=capacity_norm)

    @property
    def gap(self) -> float:
        """Normalized demand over normalized capacity: the widening gap."""
        return self.demand_norm / self.capacity_norm


def memory_gap_series(models: Optional[List[ModelConfig]] = None
                      ) -> List[MemoryGapRow]:
    """Figure 6: model memory demand vs device capacity trends.

    Returns one row per model in chronological (zoo) order, with demand
    (``H * SL`` proxy and parameter count) and device capacity normalized
    to the first model's year.
    """
    models = models if models is not None else [
        zoo.MODEL_ZOO[name] for name in zoo.ZOO_ORDER
    ]
    if not models:
        raise ValueError("need at least one model")
    base = models[0]
    base_demand = memory_demand_proxy(base)
    base_params = base.total_params()
    base_capacity = device_memory_gb(base.year)
    rows = []
    for model in models:
        capacity = device_memory_gb(model.year)
        rows.append(
            MemoryGapRow(
                model=model.name,
                year=model.year,
                demand_proxy=memory_demand_proxy(model),
                params=model.total_params(),
                capacity_gb=capacity,
                demand_norm=memory_demand_proxy(model) / base_demand,
                params_norm=model.total_params() / base_params,
                capacity_norm=capacity / base_capacity,
            )
        )
    return rows


class TpScalingRow(Frozen):
    """One model's entry in the Figure 9(b) TP-scaling series."""

    __slots__ = ("model", "year", "p", "s", "p_over_s", "required_tp")

    model: str
    year: int
    p: float
    s: float
    p_over_s: float
    required_tp: int

    def __init__(self, model: str, year: int, p: float, s: float,
                 p_over_s: float, required_tp: int) -> None:
        self._set(model=model, year=year, p=p, s=s, p_over_s=p_over_s,
                  required_tp=required_tp)


def tp_scaling_series(max_tp: Optional[int] = None) -> List[TpScalingRow]:
    """Figure 9(b): required TP scaling for zoo models since the anchor.

    Only models at least as large as the Megatron-LM BERT anchor are
    included (the figure starts at the anchor).
    """
    anchor = zoo.MEGATRON_LM_BERT
    anchor_size = model_size_params(anchor)
    rows = []
    for name in zoo.ZOO_ORDER:
        model = zoo.MODEL_ZOO[name]
        if model_size_params(model) < anchor_size:
            continue
        p = model_size_params(model) / anchor_size
        s = device_memory_gb(model.year) / device_memory_gb(anchor.year)
        rows.append(
            TpScalingRow(
                model=name,
                year=model.year,
                p=p,
                s=s,
                p_over_s=p / s,
                required_tp=required_tp(model, max_tp=max_tp),
            )
        )
    return rows


def zoo_training_setups(max_tp: Optional[int] = None
                        ) -> List[Tuple[ModelConfig, ParallelConfig]]:
    """Historically faithful (model, parallelism) pairs for the zoo.

    Each zoo model gets its historical per-device batch size
    (:data:`HISTORICAL_BATCH`) and its estimated required TP degree;
    DP is fixed at 2 (the slack analysis is DP-degree agnostic,
    Section 4.3.2).  This is the input series for Figure 7.
    """
    setups = []
    for name in zoo.ZOO_ORDER:
        model = zoo.MODEL_ZOO[name].with_inputs(batch=HISTORICAL_BATCH[name])
        tp = required_tp(model, max_tp=max_tp)
        setups.append((model, ParallelConfig(tp=tp, dp=2)))
    return setups
