"""Lazy grid planning: chunk boundaries, constraints, content keys."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import ConfigGrid
from repro.core.gridplan import (
    DEFAULT_CHUNK_SIZE,
    FitsDeviceMemory,
    GridConstraint,
    GridSpec,
    MaxWorldSize,
)
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.strategy import sweep_num_heads
from repro.hardware.cluster import mi210_node
from repro.models.memory import fits_on_device


class EvenDp(GridConstraint):
    """A user-defined constraint: keep rows with an even DP degree."""

    __slots__ = ()

    def mask(self, columns):
        return columns["dp"] % 2 == 0

    def spec_key(self):
        return ("even-dp",)


def small_spec(**overrides) -> GridSpec:
    axes = dict(
        hidden=(1024, 2048, 4096),
        seq_len=(1024, 2048),
        batch=(1, 4),
        tp=(2, 4, 8),
        dp=(1, 2, 4),
    )
    axes.update(overrides)
    return GridSpec(**axes)


class TestChunking:
    def test_raw_size_and_shape(self):
        spec = small_spec()
        assert spec.shape == (3, 2, 2, 3, 3)
        assert spec.raw_size == 108

    def test_non_divisible_chunk_boundary(self):
        spec = small_spec()
        chunks = list(spec.chunks(chunk_size=16))
        assert len(chunks) == spec.chunk_count(16) == 7
        assert [chunk.raw_rows for chunk in chunks] == [16] * 6 + [12]
        assert sum(len(chunk) for chunk in chunks) == 108

    def test_chunk_union_equals_materialize(self):
        spec = small_spec()
        whole = spec.materialize()
        offsets = np.concatenate([chunk.offsets
                                  for chunk in spec.chunks(chunk_size=7)])
        np.testing.assert_array_equal(offsets, whole.offsets)
        for name in ("hidden", "seq_len", "batch", "tp", "dp",
                     "num_heads", "ffn_dim"):
            streamed = np.concatenate([
                getattr(chunk.grid, name)
                for chunk in spec.chunks(chunk_size=7)
            ])
            np.testing.assert_array_equal(streamed,
                                          getattr(whole.grid, name))

    def test_single_point_grid(self):
        spec = GridSpec(hidden=(2048,), seq_len=(1024,), batch=(1,),
                        tp=(4,), dp=(2,))
        assert spec.raw_size == 1
        assert spec.chunk_count(DEFAULT_CHUNK_SIZE) == 1
        chunk = spec.chunk(0)
        assert len(chunk) == 1
        assert chunk.offsets.tolist() == [0]
        model, parallel = chunk.grid.at(0)
        assert (model.hidden, model.seq_len, model.batch) == (2048, 1024, 1)
        assert (parallel.tp, parallel.dp) == (4, 2)

    def test_empty_after_constraints(self):
        spec = small_spec(constraints=(MaxWorldSize(1),))
        chunks = list(spec.chunks(chunk_size=16))
        assert all(len(chunk) == 0 for chunk in chunks)
        assert sum(chunk.raw_rows for chunk in chunks) == 108
        # empty chunks still carry a valid (zero-length) ConfigGrid
        assert isinstance(chunks[0].grid, ConfigGrid)
        assert len(chunks[0].grid) == 0

    def test_chunk_index_out_of_range(self):
        spec = small_spec()
        with pytest.raises(IndexError):
            spec.chunk(7, chunk_size=16)
        with pytest.raises(IndexError):
            spec.chunk(-1, chunk_size=16)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            small_spec().chunk_count(0)

    def test_row_major_order_dp_fastest(self):
        spec = small_spec()
        chunk = spec.chunk(0, chunk_size=9)
        # first 9 rows: H and SL and B and TP pinned, dp cycling fastest
        assert chunk.grid.dp.tolist()[:3] == [1, 2, 4]
        assert chunk.grid.tp.tolist()[:9] == [2, 2, 2, 4, 4, 4, 8, 8, 8]

    def test_materialize_guard(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            spec.materialize(max_rows=10)
        assert len(spec.materialize(max_rows=None).grid) == 108

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            small_spec(hidden=())
        with pytest.raises(ValueError):
            small_spec(tp=(0,))


class TestDivisibilityFilter:
    def test_mirrors_sweep_num_heads_contract(self):
        # H=1536 -> 12 heads; TP=8 does not divide 12, TP=4 does.
        spec = GridSpec(hidden=(1536,), seq_len=(1024,), batch=(1,),
                        tp=(4, 8), dp=(1,))
        whole = spec.materialize()
        assert whole.grid.tp.tolist() == [4]
        heads = int(whole.grid.num_heads[0])
        assert heads == sweep_num_heads(1536, 4)
        assert 1536 % heads == 0

    def test_kept_rows_always_construct(self):
        spec = small_spec(hidden=(1024, 1536, 20480))
        for chunk in spec.chunks(chunk_size=32):
            for index in range(len(chunk)):
                model, parallel = chunk.grid.at(index)  # must not raise
                assert model.num_heads % parallel.tp == 0


class TestConstraints:
    def test_max_world_size(self):
        spec = small_spec(constraints=(MaxWorldSize(8),))
        whole = spec.materialize()
        assert len(whole.grid) > 0
        assert (whole.grid.tp * whole.grid.dp).max() <= 8

    def test_fits_device_memory_matches_scalar(self):
        device = mi210_node().device
        constraint = FitsDeviceMemory.from_device(device)
        spec = GridSpec(
            hidden=(1024, 4096, 16384, 65536),
            seq_len=(2048, 8192),
            batch=(1, 16),
            tp=(1, 8, 64),
            dp=(1, 8),
        )
        whole = spec.chunk(0, chunk_size=spec.raw_size)
        columns = whole.columns()
        mask = constraint.mask(columns)
        kept_fits = []
        for index in range(len(whole)):
            hidden = int(columns["hidden"][index])
            tp = int(columns["tp"][index])
            model = ModelConfig(
                name="memtest",
                hidden=hidden,
                seq_len=int(columns["seq_len"][index]),
                batch=int(columns["batch"][index]),
                num_layers=1,
                num_heads=sweep_num_heads(hidden, tp),
            )
            parallel = ParallelConfig(tp=tp,
                                      dp=int(columns["dp"][index]))
            kept_fits.append(fits_on_device(model, parallel, device,
                                            checkpointing=True))
        assert mask.tolist() == kept_fits
        assert any(kept_fits) and not all(kept_fits)

    def test_fits_device_memory_non_checkpointing(self):
        device = mi210_node().device
        constraint = FitsDeviceMemory.from_device(device,
                                                  checkpointing=False)
        spec = GridSpec(hidden=(2048, 8192), seq_len=(2048,), batch=(4,),
                        tp=(8,), dp=(1,))
        whole = spec.chunk(0, chunk_size=spec.raw_size)
        columns = whole.columns()
        mask = constraint.mask(columns)
        for index in range(len(whole)):
            model, parallel = whole.grid.at(index)
            model = ModelConfig(
                name="memtest", hidden=model.hidden,
                seq_len=model.seq_len, batch=model.batch, num_layers=1,
                num_heads=model.num_heads, ffn_dim=model.ffn_dim,
            )
            assert bool(mask[index]) == fits_on_device(
                model, parallel, device, checkpointing=False
            )

    def test_predicate_filters_and_keys_on_label(self):
        spec = small_spec(constraints=(EvenDp(),))
        whole = spec.materialize()
        assert set(whole.grid.dp.tolist()) == {2, 4}
        assert spec.chunk_key(0, 4) == small_spec(
            constraints=(EvenDp(),)).chunk_key(0, 4)
        assert spec.chunk_key(0, 4) != small_spec().chunk_key(0, 4)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            MaxWorldSize(0)
        with pytest.raises(ValueError):
            FitsDeviceMemory(capacity_bytes=1, headroom=0.0)


class TestContentKeys:
    def test_chunk_key_deterministic(self):
        spec = small_spec(constraints=(MaxWorldSize(64),))
        clone = small_spec(constraints=(MaxWorldSize(64),))
        assert spec.chunk_key(3, 16) == clone.chunk_key(3, 16)

    def test_chunk_key_sensitivity(self):
        spec = small_spec()
        keys = {
            spec.chunk_key(0, 16),
            spec.chunk_key(1, 16),
            spec.chunk_key(0, 32),
            small_spec(hidden=(1024, 2048)).chunk_key(0, 16),
            small_spec(constraints=(MaxWorldSize(64),)).chunk_key(0, 16),
        }
        assert len(keys) == 5

    def test_content_key_covers_constraints(self):
        bare = small_spec()
        constrained = small_spec(constraints=(MaxWorldSize(64),))
        assert bare.content_key() != constrained.content_key()
