"""The search's records: immutable, picklable, and not dataclasses."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.batch import BatchBreakdown, ConfigGrid
from repro.core.bounds import ChunkBounds, MetricBounds
from repro.core.gridplan import (
    FitsDeviceMemory,
    GridChunk,
    GridSpec,
    MaxWorldSize,
)
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
)
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.megasweep import SweepResult


SPEC = GridSpec(hidden=(1024, 2048), seq_len=(512,), batch=(1,),
                tp=(1, 2), dp=(1, 2),
                constraints=(MaxWorldSize(4),
                             FitsDeviceMemory(capacity_bytes=1 << 36)))

#: Records with value equality, one per class.
VALUES = [SPEC, *SPEC.constraints, TopK("iteration_time", k=3),
          ParetoFront(), Histogram("serialized_comm_fraction"),
          ArgExtrema("iteration_time"), Collect(limit=5)]


@pytest.mark.parametrize("record", VALUES, ids=lambda r: type(r).__name__)
def test_value_records_pickle_to_equals(record):
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and hash(clone) == hash(record)
    assert repr(clone) == repr(record)
    assert clone != TopK("compute_time")


@pytest.mark.parametrize("record", VALUES, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    name = next(slot for slot in type(record).__slots__
                if not slot.startswith("_"))
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, name)


def test_array_records_are_read_only_and_pickle():
    chunk = SPEC.materialize()
    breakdown = BatchBreakdown(*(np.arange(len(chunk), dtype=float)
                                 for _ in range(4)))
    evaluated = EvaluatedChunk(chunk.offsets, chunk.columns(), breakdown)
    bounds = MetricBounds(lower={"iteration_time": np.zeros(2)},
                          upper={"iteration_time": np.ones(2)})
    for record in (chunk, chunk.grid, breakdown, evaluated, bounds):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, type(record).__slots__[0], None)
        clone = pickle.loads(pickle.dumps(record))
        assert clone != record  # identity equality, as before
        assert len(clone) == len(record)
    assert np.array_equal(pickle.loads(pickle.dumps(chunk.grid)).hidden,
                          chunk.grid.hidden)


def test_no_search_record_is_a_dataclass():
    for cls in (ConfigGrid, BatchBreakdown, GridSpec, GridChunk,
                MaxWorldSize, FitsDeviceMemory, EvaluatedChunk,
                TopK, ParetoFront, Histogram, ArgExtrema, Collect,
                MetricBounds, ChunkBounds, SweepResult, CacheStats,
                ResultCache):
        assert not dataclasses.is_dataclass(cls), cls


def test_sweep_result_meta_default_is_read_only():
    result = SweepResult({}, 1, 1, 1, 1, 1, "execute", 0.0)
    assert result.meta == {} and result.cache_hits == 0
    with pytest.raises(TypeError):
        result.meta["prune"] = {}  # type: ignore[index]
