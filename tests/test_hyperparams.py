"""Tests for repro.core.hyperparams."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hyperparams import (
    LayerType,
    ModelConfig,
    ParallelConfig,
    Precision,
    validate_model_parallel,
)


def _model(**overrides) -> ModelConfig:
    params = dict(name="m", hidden=1024, seq_len=512, batch=2,
                  num_layers=2, num_heads=16)
    params.update(overrides)
    return ModelConfig(**params)


class TestPrecision:
    def test_byte_widths(self):
        assert Precision.FP32.bytes == 4
        assert Precision.TF32.bytes == 4
        assert Precision.FP16.bytes == 2
        assert Precision.BF16.bytes == 2
        assert Precision.FP8.bytes == 1

    def test_all_members_have_bytes(self):
        for precision in Precision:
            assert precision.bytes >= 1


class TestModelConfig:
    def test_defaults(self):
        model = _model()
        assert model.ffn_dim == 4 * model.hidden
        assert model.precision is Precision.FP16
        assert model.layer_type is LayerType.DECODER

    def test_explicit_ffn_dim_preserved(self):
        model = _model(ffn_dim=5120)
        assert model.ffn_dim == 5120

    def test_head_dim(self):
        assert _model(hidden=1024, num_heads=16).head_dim == 64

    def test_slb_product(self):
        assert _model(seq_len=512, batch=4).slb == 2048

    @pytest.mark.parametrize("field", ["hidden", "seq_len", "batch",
                                       "num_layers", "num_heads"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError, match="positive"):
            _model(**{field: 0})
        with pytest.raises(ValueError, match="positive"):
            _model(**{field: -3})

    def test_rejects_non_positive_ffn(self):
        with pytest.raises(ValueError, match="positive"):
            _model(ffn_dim=-1)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            _model(hidden=1000, num_heads=16)

    def test_params_per_layer_standard_geometry(self):
        model = _model(hidden=1024)
        # 4 H^2 attention + 8 H^2 FC + 9 H small terms
        expected = 12 * 1024 * 1024 + 9 * 1024
        assert model.params_per_layer() == expected

    def test_total_params_scales_with_layers(self):
        one = _model(num_layers=1)
        many = _model(num_layers=24)
        assert many.total_params() == 24 * one.total_params()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _model().hidden = 2048  # type: ignore[misc]

    def test_scaled_grows_dimensions(self):
        scaled = _model().scaled(hidden_scale=4.0, seq_scale=2.0)
        assert scaled.hidden == 4096
        assert scaled.seq_len == 1024
        assert scaled.ffn_dim == 4 * scaled.hidden

    def test_scaled_respects_head_divisibility(self):
        scaled = _model(num_heads=16).scaled(hidden_scale=1.3)
        assert scaled.hidden % scaled.num_heads == 0

    def test_scaled_sets_name(self):
        assert _model().scaled(2.0, name="big").name == "big"
        assert "scaled" in _model().scaled(2.0).name

    def test_scaled_overrides_batch(self):
        assert _model(batch=8).scaled(batch=1).batch == 1

    def test_with_inputs(self):
        model = _model().with_inputs(batch=7, seq_len=256)
        assert (model.batch, model.seq_len) == (7, 256)
        assert model.hidden == _model().hidden

    def test_with_inputs_partial(self):
        assert _model(batch=2).with_inputs(seq_len=128).batch == 2

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=4096))
    def test_slb_always_positive(self, batch, seq_len):
        model = _model(batch=batch, seq_len=seq_len)
        assert model.slb == batch * seq_len > 0


class TestParallelConfig:
    def test_defaults_single_device(self):
        parallel = ParallelConfig()
        assert parallel.world_size == 1
        assert not parallel.uses_tensor_parallelism
        assert not parallel.uses_data_parallelism

    def test_world_size_product(self):
        parallel = ParallelConfig(tp=8, dp=4, pp=2, ep=2)
        assert parallel.world_size == 128

    @pytest.mark.parametrize("field", ["tp", "dp", "pp", "ep"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError, match="positive"):
            ParallelConfig(**{field: 0})

    def test_flags(self):
        assert ParallelConfig(tp=2).uses_tensor_parallelism
        assert ParallelConfig(dp=2).uses_data_parallelism


class TestValidateModelParallel:
    def test_accepts_divisible_setup(self):
        validate_model_parallel(_model(), ParallelConfig(tp=8, dp=2))

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="num_heads"):
            validate_model_parallel(_model(num_heads=12),
                                    ParallelConfig(tp=8))

    def test_rejects_indivisible_ffn(self):
        with pytest.raises(ValueError, match="ffn_dim"):
            validate_model_parallel(_model(ffn_dim=1000, num_heads=16),
                                    ParallelConfig(tp=16))

    def test_rejects_pp_exceeding_layers(self):
        with pytest.raises(ValueError, match="pipeline"):
            validate_model_parallel(_model(num_layers=2),
                                    ParallelConfig(pp=4))
