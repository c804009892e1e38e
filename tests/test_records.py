"""Every record is an immutable, picklable ``Frozen``, not a dataclass.

The value records keep the semantics their dataclass versions had:
equal when they have the same class and equal fields, hashing as the
tuple of their compared fields, and keyed by the same canonical
document.  The search's array records compare by identity.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from typing import List

import numpy as np
import pytest

import repro
from repro._frozen import Frozen
from repro.core.autotune import PlanCandidate
from repro.core.batch import BatchBreakdown, ConfigGrid
from repro.core.bounds import ChunkBounds, MetricBounds
from repro.core.casestudy import CaseStudyRow, CaseStudyScenario
from repro.core.edge import EdgeAnalysis
from repro.core.energy import EnergyBreakdown, EnergyCoefficients
from repro.core.evolution import HardwareScenario
from repro.core.flops import LayerCounts
from repro.core.forecast import GrowthTrend
from repro.core.gridplan import (
    FitsDeviceMemory,
    GridChunk,
    GridSpec,
    MaxWorldSize,
)
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.invariants import Violation
from repro.core.projection import (
    CollectiveReference,
    ErrorStats,
    OperatorModelSuite,
)
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
)
from repro.core.roi import OverlapRoi, OverlapRoiTiming
from repro.core.scaling import MemoryGapRow, TpScalingRow
from repro.core.slack import SlackAnalysis
from repro.core.strategy import ProfilingCostReport, SweepSpec
from repro.core.validation import LawFit
from repro.experiments.base import ExperimentResult, RunMeta
from repro.experiments.sweeps import SerializedLine
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.collectives import CollectiveTimingModel
from repro.hardware.elementwise import ElementwiseTimingModel
from repro.hardware.gemm import GemmTimingModel
from repro.hardware.hostlink import HostLink
from repro.hardware.network import Link
from repro.hardware.specs import MI210, DeviceSpec
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.hardware.topology import Topology, TopologyKind
from repro.models.compression import CompressionScheme
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    GemmShape,
    Phase,
    SubLayer,
    Trace,
)
from repro.models.memory import MemoryFootprint
from repro.models.moe import MoEConfig
from repro.models.offload import OffloadEstimate
from repro.models.pipeline import PipelineEstimate
from repro.models.stats import OperatorCensus
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.keys import canonicalize
from repro.runtime.megasweep import SweepResult
from repro.sim.breakdown import Breakdown
from repro.sim.checker import (
    Divergence,
    OpDiff,
    OracleReport,
    PruneReport,
    SelfTestReport,
    StreamReport,
)
from repro.sim.engine import Schedule, ScheduledTask, Task
from repro.sim.executor import ExecutionResult
from repro.sim.profiler import KernelRecord, Profile


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
                          upper={"iteration_time": np.ones(2)},
                          breakdown=breakdown)
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
        assert "__dataclass_fields__" not in vars(cls), cls


def test_sweep_result_meta_default_is_read_only():
    result = SweepResult({}, 1, 1, 1, 1, 1, "execute", 0.0)
    assert result.meta == {} and result.cache_hits == 0
    with pytest.raises(TypeError):
        result.meta["prune"] = {}  # type: ignore[index]


# -- every other record: the former dataclasses --------------------------

_MODEL = ModelConfig("probe", hidden=1024, seq_len=512, batch=2,
                     num_heads=8)
_PARALLEL = ParallelConfig(tp=2, dp=4)
_SHAPE = GemmShape(m=512, n=1024, k=256, batch=2)
_GEMM = GemmOp("fc1", _SHAPE, Phase.FORWARD, SubLayer.FC, layer=1)
_ELEMENTWISE = ElementwiseOp("ln", 4096, Phase.FORWARD, SubLayer.OTHER,
                             kind="layernorm")
_COMM = CommOp("grad_ar", CollectiveKind.ALL_REDUCE, 1 << 20, CommGroup.DP,
               Phase.BACKWARD, SubLayer.FC, overlappable=True)
_TRACE = Trace(_MODEL, _PARALLEL, [_GEMM, _ELEMENTWISE, _COMM])
_BREAKDOWN = Breakdown(3e-3, 1e-3, 2e-3, 4.5e-3)
_TASK = Task("t1", "compute", 1e-3, deps=["t0"])
_SCHEDULED = ScheduledTask(_TASK, 0.5e-3, 1.5e-3)
_SCHEDULE = Schedule((_SCHEDULED,))
_LINK = Link(bandwidth=100e9, latency=2e-6)
_SCENARIO = HardwareScenario("2x flop-vs-bw", compute_scale=2.0)
_REFERENCE = CollectiveReference(CollectiveKind.ALL_REDUCE, 1 << 25, 4,
                                 1e-3)
_VIOLATION = Violation("makespan-conservation", "breakdown", "too long")
_DIFF = OpDiff("fc1", 1e-3, 1.5e-3)
_DIVERGENCE = Divergence(3, _MODEL, _PARALLEL, 1e-3, 2e-3,
                         op_diffs=(_DIFF,), violations=(_VIOLATION,))
_KERNEL = KernelRecord("fc1", "gemm", 1e-3, {"m": 512, "n": 1024})

#: One instance of each of the 59 records that were frozen dataclasses.
RECORDS = [
    PlanCandidate(_PARALLEL, 1e-2, 1e5, 12.5, 0.2),
    CaseStudyScenario("4x", _SCENARIO, overlapped_comm_slowdown=8.0),
    CaseStudyRow("4x", _BREAKDOWN),
    EdgeAnalysis(_MODEL, _PARALLEL, 1 << 30, 1 << 20, 1024.0, 1000.0),
    EnergyCoefficients(idle_watts=50.0),
    EnergyBreakdown(1.0, 2.0, 3.0),
    _SCENARIO,
    LayerCounts(1 << 30, 1 << 20, 1 << 22),
    GrowthTrend(2018, 1e9, 10.0),
    _MODEL,
    _PARALLEL,
    _VIOLATION,
    _REFERENCE,
    OperatorModelSuite(_MODEL, {"fc1": (_GEMM, 1e-3)},
                       {CollectiveKind.ALL_REDUCE: _REFERENCE}, 0.5),
    ErrorStats(0.05, 0.04, 0.12, 30),
    OverlapRoi((_GEMM,), (_COMM,)),
    OverlapRoiTiming(_MODEL, _PARALLEL, 2e-3, 1e-3),
    MemoryGapRow("BERT", 2018, 1 << 20, 1 << 28, 16.0, 1.0, 1.0, 1.0),
    TpScalingRow("BERT", 2018, 1.0, 2.0, 0.5, 4),
    SlackAnalysis(_MODEL, _PARALLEL, 1 << 30, 1 << 20, 1024.0, 1000.0),
    SweepSpec((1024, 2048), (1, 2), (512,), (1, 2)),
    ProfilingCostReport(100.0, 1.0, 400, 198, 197),
    LawFit(1.0, 0.999, ((1.0, 1.0), (2.0, 2.0))),
    RunMeta(0.5, "miss", "0123456789abcdef", checked=True),
    ExperimentResult("figure-99", "probe", ["a", "b"], [[1, 2], [3, 4]],
                     notes=["note"]),
    SerializedLine(4096, 2048, "H=4K, SL=2K"),
    ClusterSpec(devices_per_node=8, inter_link=_LINK),
    CollectiveTimingModel(jitter_amplitude=0.0),
    ElementwiseTimingModel(),
    GemmTimingModel(tile=64),
    HostLink("pcie4", _LINK, _LINK),
    _LINK,
    MI210,
    DEFAULT_TIMING,
    Topology(TopologyKind.RING, 8, 50e9),
    CompressionScheme("1-bit", 1 / 32, encode_passes=2.0),
    _SHAPE,
    _GEMM,
    _ELEMENTWISE,
    _COMM,
    _TRACE,
    MemoryFootprint(1, 2, 3, 4),
    MoEConfig(num_experts=8),
    OffloadEstimate(10, 5, 1e-2, 2e-3, 1e-3, 1.3e-2),
    PipelineEstimate(1e-2, 1e-4, 3e-3),
    OperatorCensus(1e-3, 2e-3, 1 << 30, 1 << 31, 12, 6),
    _BREAKDOWN,
    _DIFF,
    _DIVERGENCE,
    OracleReport(200, 200, 7, divergence=_DIVERGENCE),
    SelfTestReport(10, 0, 50, 50),
    StreamReport(100, ("chunk-16",), mismatches=("chunk-16",)),
    PruneReport(10, (), 100, ("pruned",), exact_fraction=0.5),
    _TASK,
    _SCHEDULED,
    _SCHEDULE,
    ExecutionResult(_TRACE, _SCHEDULE, _BREAKDOWN),
    _KERNEL,
    Profile([_KERNEL]),
]

_IDS = [type(record).__name__ for record in RECORDS]


def _all_records() -> List[type]:
    """Every concrete ``Frozen`` subclass in the package."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, stack = [], [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and cls._fields:
                found.append(cls)
    return found


def test_every_former_dataclass_is_covered():
    search = {type(record) for record in VALUES} | {
        ConfigGrid, BatchBreakdown, GridChunk, EvaluatedChunk, MetricBounds}
    covered = {type(record) for record in RECORDS}
    assert len(covered) == len(RECORDS) == 59
    assert set(_all_records()) == covered | search


@pytest.mark.parametrize("record", RECORDS, ids=_IDS)
def test_record_is_immutable(record):
    assert "__dataclass_fields__" not in vars(type(record))
    assert not hasattr(record, "__dict__")
    name = record._fields[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=_IDS)
def test_record_pickles_to_an_equal_record(record):
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and clone is not record
    assert repr(clone) == repr(record)
    assert canonicalize(clone) == canonicalize(record)


@pytest.mark.parametrize("record", RECORDS, ids=_IDS)
def test_value_equality_and_hash_as_the_dataclass_had_them(record):
    compared = tuple(getattr(record, name) for name in record._fields
                     if name not in record._uncompared)
    try:
        expected = hash(compared)
    except TypeError:  # a dict field: the dataclass was unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert record == type(record)(*(getattr(record, name)
                                    for name in record._fields))
    assert record.__eq__(compared) is NotImplemented
    assert record != compared


@pytest.mark.parametrize("record", RECORDS, ids=_IDS)
def test_replace_rebuilds_through_the_constructor(record):
    same = record.replace()
    assert same == record and same is not record
    name = record._fields[-1]
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)
    assert getattr(record.replace(**{name: getattr(record, name)}),
                   name) == getattr(record, name)


@pytest.mark.parametrize("record", RECORDS, ids=_IDS)
def test_canonical_document_is_the_dataclass_one(record):
    cls = type(record)
    document = canonicalize(record)
    assert document["__dataclass__"] == f"{cls.__module__}.{cls.__qualname__}"
    assert list(document["fields"]) == list(record._fields)


def test_replace_validates_and_derives_like_init():
    wider = _MODEL.replace(hidden=2048, ffn_dim=None)
    assert wider.ffn_dim == 4 * 2048 and wider.name == _MODEL.name
    assert _MODEL.replace(batch=4) != _MODEL
    with pytest.raises(ValueError, match="divisible"):
        _MODEL.replace(hidden=1001)
    with pytest.raises(ValueError, match="GEMM dim k"):
        _SHAPE.replace(k=0)
    assert mi210_node().replace(devices_per_node=8).devices_per_node == 8


def test_hot_constructors_name_the_bad_field():
    for name, dims in (("m", (0, 1, 1, 1)), ("n", (1, -1, 1, 1)),
                       ("k", (1, 1, 0, 1)), ("batch", (1, 1, 1, 0))):
        with pytest.raises(ValueError, match=f"GEMM dim {name} "):
            GemmShape(*dims)
    for name in Breakdown._fields:
        with pytest.raises(ValueError, match=name):
            _BREAKDOWN.replace(**{name: -1.0})


def test_sequence_fields_become_tuples():
    assert _TRACE.ops == (_GEMM, _ELEMENTWISE, _COMM)
    assert _TASK.deps == ("t0",)
    result = RECORDS[_IDS.index("ExperimentResult")]
    assert result.headers == ("a", "b")
    assert result.rows == ((1, 2), (3, 4)) and result.notes == ("note",)
    assert isinstance(_KERNEL.meta, dict)


def test_experiment_result_meta_takes_no_part_in_equality():
    result = RECORDS[_IDS.index("ExperimentResult")]
    with_meta = result.with_meta(RunMeta(1.0, "hit", "f" * 16))
    assert with_meta == result and hash(with_meta) == hash(result)
    assert with_meta.meta is not None and result.meta is None
    assert canonicalize(with_meta) != canonicalize(result)


def test_equality_needs_the_same_class():
    assert EnergyBreakdown(1.0, 2.0, 3.0) != PipelineEstimate(1.0, 2.0, 3.0)
    assert ParallelConfig() == ParallelConfig(1, 1, 1, 1)
    assert {ParallelConfig(tp=2): "a"}[ParallelConfig(tp=2)] == "a"
    assert DeviceSpec.__eq__(MI210, _LINK) is NotImplemented
    assert TimingModels() == DEFAULT_TIMING


@pytest.mark.parametrize("record", (
    ModelConfig(name="m", hidden=1024, seq_len=512, num_heads=8),
    ParallelConfig(tp=2, dp=4),
), ids=("ModelConfig", "ParallelConfig"))
def test_hash_slot_caches_the_field_hash(record):
    """Records a cache keys on keep their hash in a ``_hash`` slot: the
    same value as the field tuple's, and never copied to a new record."""
    compared = tuple(getattr(record, name) for name in record._fields
                     if name not in record._uncompared)
    assert "_hash" not in record._fields
    with pytest.raises(AttributeError):
        record._hash
    assert hash(record) == hash(compared) == record._hash
    assert hash(record) == hash(compared)
    for copy in (record.replace(), pickle.loads(pickle.dumps(record))):
        with pytest.raises(AttributeError):
            copy._hash
        assert copy == record and hash(copy) == hash(record)
