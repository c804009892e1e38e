"""Tests for repro.models.zoo (Table 2)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import LayerType
from repro.models import zoo


class TestZooContents:
    def test_all_eight_models_present(self):
        assert len(zoo.MODEL_ZOO) == 8
        assert set(zoo.REPORTED_SIZES_B) == set(zoo.MODEL_ZOO)

    def test_order_is_chronological(self):
        years = [zoo.MODEL_ZOO[name].year for name in zoo.ZOO_ORDER]
        assert years == sorted(years)

    def test_bert_hyperparameters(self):
        bert = zoo.MODEL_ZOO["BERT"]
        assert (bert.num_layers, bert.hidden, bert.num_heads) == (24, 1024, 16)
        assert (bert.seq_len, bert.ffn_dim) == (512, 4096)
        assert bert.layer_type is LayerType.ENCODER

    def test_palm_hyperparameters(self):
        palm = zoo.MODEL_ZOO["PaLM"]
        assert (palm.num_layers, palm.hidden) == (118, 18432)
        assert palm.seq_len == 2048

    def test_gpt3_size_matches_reported(self):
        gpt3 = zoo.MODEL_ZOO["GPT-3"]
        computed = gpt3.total_params() / 1e9
        assert computed == pytest.approx(175.0, rel=0.05)

    @pytest.mark.parametrize("name", ["BERT", "GPT-2", "Megatron-LM",
                                      "T-NLG", "GPT-3", "MT-NLG"])
    def test_standard_models_match_reported_sizes(self, name):
        # T5 and PaLM use non-standard blocks; the rest should agree with
        # layer-stack counting within ~15%.
        computed = zoo.MODEL_ZOO[name].total_params() / 1e9
        assert computed == pytest.approx(zoo.REPORTED_SIZES_B[name], rel=0.15)

    def test_anchor_is_megatron_bert(self):
        anchor = zoo.MEGATRON_LM_BERT
        assert anchor.total_params() / 1e9 == pytest.approx(3.9, rel=0.1)
        assert zoo.MEGATRON_LM_BERT_TP == 8

    def test_hidden_divisible_by_heads_everywhere(self):
        for name in zoo.ZOO_ORDER:
            model = zoo.MODEL_ZOO[name]
            assert model.hidden % model.num_heads == 0, name


class TestZooTable:
    def test_row_per_model_in_order(self):
        rows = zoo.zoo_table()
        assert [row["model"] for row in rows] == zoo.ZOO_ORDER

    def test_rows_carry_both_size_columns(self):
        for row in zoo.zoo_table():
            assert row["reported_params_b"] > 0
            assert row["computed_params_b"] > 0

    def test_model_growth_spans_three_orders_of_magnitude(self):
        # The paper's motivating fact: BERT -> PaLM grows >1000x.
        sizes = [zoo.REPORTED_SIZES_B[name] for name in zoo.ZOO_ORDER]
        assert sizes[-1] / sizes[0] > 1000
