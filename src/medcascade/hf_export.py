"""Export a pretrained BERT-style encoder to the numpy weight layout.

Optional: needs the ``hf`` extra (transformers + torch).  The output
directory (config.json, weights.npz, vocab.txt) is what
``NumpyTransformerEncoder.from_pretrained_dir`` and the pretrained backend
ids in ``resolve_encoder`` consume, so heavyweight dependencies are confined
to this one-off conversion step.  ``train`` reads ``weights.npz`` once, into
the workdir's base store (``encoder.frozen_base``), and maps the stored copy
read-only from then on.
"""

from __future__ import annotations

import numpy as np

from .encoder import write_export
from .errors import EncoderUnavailable

_STATIC_RENAMES = {
    "embeddings.word_embeddings.weight": "embeddings.word",
    "embeddings.position_embeddings.weight": "embeddings.position",
    "embeddings.token_type_embeddings.weight": "embeddings.token_type",
    "embeddings.LayerNorm.weight": "embeddings.ln.gamma",
    "embeddings.LayerNorm.bias": "embeddings.ln.beta",
}

_LAYER_RENAMES = {
    "attention.self.query.weight": "attn.query.W",
    "attention.self.query.bias": "attn.query.b",
    "attention.self.key.weight": "attn.key.W",
    "attention.self.key.bias": "attn.key.b",
    "attention.self.value.weight": "attn.value.W",
    "attention.self.value.bias": "attn.value.b",
    "attention.output.dense.weight": "attn.output.W",
    "attention.output.dense.bias": "attn.output.b",
    "attention.output.LayerNorm.weight": "attn.ln.gamma",
    "attention.output.LayerNorm.bias": "attn.ln.beta",
    "intermediate.dense.weight": "ffn.inner.W",
    "intermediate.dense.bias": "ffn.inner.b",
    "output.dense.weight": "ffn.outer.W",
    "output.dense.bias": "ffn.outer.b",
    "output.LayerNorm.weight": "ffn.ln.gamma",
    "output.LayerNorm.bias": "ffn.ln.beta",
}


def convert_state_dict(state_dict: dict) -> dict[str, np.ndarray]:
    """Map HF BertModel parameter names onto the numpy encoder's names."""
    params: dict[str, np.ndarray] = {}
    for hf_name, tensor in state_dict.items():
        name = hf_name.removeprefix("bert.")
        array = np.asarray(tensor, dtype=np.float64)
        if name in _STATIC_RENAMES:
            params[_STATIC_RENAMES[name]] = array
            continue
        if name.startswith("encoder.layer."):
            rest = name.removeprefix("encoder.layer.")
            layer_no, sub = rest.split(".", 1)
            if sub in _LAYER_RENAMES:
                params[f"layer.{layer_no}.{_LAYER_RENAMES[sub]}"] = array
        # the pooler and task heads are dropped: the encoder's output is the [CLS] state
    return params


def export_encoder(model_id: str, out_dir: str) -> str:
    """Download ``model_id`` via transformers and write the numpy layout; its
    ``config.json`` names no pooling, as the encoder always outputs [CLS]."""
    try:
        import torch  # noqa: F401
        from transformers import AutoModel, AutoTokenizer
    except ImportError as e:
        raise EncoderUnavailable(
            "exporting pretrained weights needs the 'hf' extra: "
            "pip install 'medcascade[hf]'") from e

    model = AutoModel.from_pretrained(model_id)
    tokenizer = AutoTokenizer.from_pretrained(model_id)
    state = {k: v.detach().cpu().numpy() for k, v in model.state_dict().items()}
    params = convert_state_dict(state)
    hf_cfg = model.config

    config = {
        "vocab_size": hf_cfg.vocab_size,
        "d_model": hf_cfg.hidden_size,
        "n_layers": hf_cfg.num_hidden_layers,
        "n_heads": hf_cfg.num_attention_heads,
        "d_ff": hf_cfg.intermediate_size,
        "max_len": hf_cfg.max_position_embeddings,
        "layer_norm_eps": hf_cfg.layer_norm_eps,
        "do_lower_case": bool(getattr(tokenizer, "do_lower_case", False)),
        "source_model": model_id,
    }
    vocab = sorted(tokenizer.get_vocab().items(), key=lambda kv: kv[1])
    write_export(out_dir, config, params, [token for token, _ in vocab])
    return out_dir
