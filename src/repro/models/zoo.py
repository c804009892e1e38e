"""Published Transformer models (Table 2 of the paper).

The zoo records the hyperparameters of the NLP models the paper uses to
establish scaling trends (BERT through PaLM), plus the Megatron-LM BERT
3.9B model used as the anchor for tensor-parallel-degree estimation
(Section 4.3.2).

Parameter-size entries in :data:`REPORTED_SIZES_B` are the paper's reported
billions of parameters; :func:`zoo_table` cross-checks them against our
layer-stack parameter counting (embeddings and model-specific extras mean
the match is approximate).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.hyperparams import LayerType, ModelConfig

__all__ = [
    "MODEL_ZOO",
    "REPORTED_SIZES_B",
    "ZOO_ORDER",
    "MEGATRON_LM_BERT",
    "zoo_table",
]


def _m(name, year, layers, hidden, heads, seq, ffn, layer_type) -> ModelConfig:
    return ModelConfig(
        name=name,
        year=year,
        num_layers=layers,
        hidden=hidden,
        num_heads=heads,
        seq_len=seq,
        ffn_dim=ffn,
        layer_type=layer_type,
        batch=1,
    )


#: Table 2: hyperparameters of published NLP models, in publication order.
MODEL_ZOO: Dict[str, ModelConfig] = {
    "BERT": _m("BERT", 2018, 24, 1024, 16, 512, 4096, LayerType.ENCODER),
    "T5": _m("T5", 2019, 24, 1024, 128, 512, 4096, LayerType.ENCODER_DECODER),
    "GPT-2": _m("GPT-2", 2019, 48, 1600, 25, 1024, 6400, LayerType.DECODER),
    "Megatron-LM": _m("Megatron-LM", 2019, 74, 3072, 24, 1024, 12288,
                      LayerType.DECODER),
    "T-NLG": _m("T-NLG", 2020, 78, 4256, 28, 1024, 17024, LayerType.DECODER),
    "GPT-3": _m("GPT-3", 2020, 96, 12288, 96, 2048, 49152, LayerType.DECODER),
    "MT-NLG": _m("MT-NLG", 2021, 105, 20480, 128, 2048, 81920,
                 LayerType.DECODER),
    "PaLM": _m("PaLM", 2022, 118, 18432, 48, 2048, 73728, LayerType.DECODER),
}

#: Reported model sizes in billions of parameters (Table 2, "Size(B)" row).
REPORTED_SIZES_B: Dict[str, float] = {
    "BERT": 0.34,
    "T5": 11.0,
    "GPT-2": 1.54,
    "Megatron-LM": 8.3,
    "T-NLG": 17.0,
    "GPT-3": 175.0,
    "MT-NLG": 530.0,
    "PaLM": 540.0,
}

#: Publication order used by figures that plot the zoo as a time series.
ZOO_ORDER: List[str] = list(MODEL_ZOO)

#: Megatron-LM BERT (3.9B): the first publicly known Transformer trained
#: with tensor parallelism (TP = 8); the anchor of the paper's TP-degree
#: projection ``TP = base_TP * (p / s)`` (Section 4.3.2, Figure 9(b)).
MEGATRON_LM_BERT = ModelConfig(
    name="Megatron-LM_BERT",
    year=2019,
    num_layers=48,
    hidden=2560,
    num_heads=40,
    seq_len=512,
    ffn_dim=10240,
    layer_type=LayerType.ENCODER,
    batch=1,
)

#: The anchor's tensor-parallel degree in its published training setup.
MEGATRON_LM_BERT_TP = 8


def zoo_table() -> List[Dict[str, object]]:
    """Render Table 2 as a list of row dicts (one per model).

    Includes both the reported parameter count and our computed layer-stack
    count so the two can be compared.
    """
    rows = []
    for name in ZOO_ORDER:
        cfg = MODEL_ZOO[name]
        rows.append(
            {
                "model": name,
                "year": cfg.year,
                "layers": cfg.num_layers,
                "hidden": cfg.hidden,
                "heads": cfg.num_heads,
                "seq_len": cfg.seq_len,
                "ffn_dim": cfg.ffn_dim,
                "type": cfg.layer_type.value,
                "reported_params_b": REPORTED_SIZES_B[name],
                "computed_params_b": cfg.total_params() / 1e9,
            }
        )
    return rows
