"""Numpy transformer encoder with adapter injection and manual backprop.

One architecture serves two roles: a tiny randomly initialized encoder for
desk-scale training and tests ("toy"), and a BERT-compatible encoder that
loads pretrained weights exported to ``weights.npz`` + ``vocab.txt`` (see
``hf_export`` for the converter).  The layout per block is post-LayerNorm:

    h1 = LN(x + SelfAttention(x))
    h2 = LN(h1 + FFN(h1))

Base parameters are always frozen.  Gradients are computed only for
attached low-rank adapters; classification heads live in ``trainer``.
The backward pass therefore threads d(pooled) down through every block,
collects adapter gradients along the way, and discards everything else.

Hot-path choices: every linear layer runs as one 2-D GEMM over all B*L
rows; a training forward evaluates erf once per GELU and keeps the GELU
derivative for backward, and an eval forward keeps no per-layer cache.
Random base weights are drawn one matrix per child seed stream, on a few
threads, so they depend on the seed and shapes only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .atomic import write_atomic
from .errors import EncoderUnavailable, ShapeMismatch
from .lora import (AdapterSet, DEFAULT_TARGET_PATTERNS, adapter_backward, adapter_delta,
                   init_adapter)
from .tokenizers import HashWordTokenizer, WordPieceTokenizer

NEG_INF = -1e30
_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INIT_WORKERS = 4      # threads drawing the random base weights, at most one per CPU

# The published Arabic encoders this pipeline targets; usable once their
# weights are exported locally (they need a weights_dir, not a network call).
PRETRAINED_BACKENDS = (
    "CAMeL-Lab/bert-base-arabic-camelbert-mix",
    "aubmindlab/bert-base-arabert",
    "asafaya/bert-base-arabic",
)


def gelu(x: np.ndarray, return_term: bool = False):
    """Exact GELU, ``0.5 x (1 + erf(x/√2))``; with ``return_term`` also the
    ``1 + erf(x/√2)`` term, so :func:`gelu_grad` need not evaluate erf again."""
    term = 1.0 + erf(x * _SQRT1_2)
    y = 0.5 * x * term
    return (y, term) if return_term else y


def gelu_grad(x: np.ndarray, term: np.ndarray | None = None) -> np.ndarray:
    """d gelu / dx; ``term`` is the one :func:`gelu` returns for the same x."""
    if term is None:
        term = 1.0 + erf(x * _SQRT1_2)
    return 0.5 * term + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _matmul_2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for an ``x`` with any leading axes, run as one 2-D GEMM over
    the flattened rows; a 3-D ``x`` would run one GEMM per leading index."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _draw_normal(shapes: dict[str, tuple], std: float, seed: int) -> dict[str, np.ndarray]:
    """N(0, std^2) arrays, one per name, each from its own child stream of
    ``SeedSequence(seed)`` (the k-th name gets the k-th child).

    The draws run on a few threads (numpy releases the GIL while it fills an
    array); since every array has its own stream, the values do not depend on
    how many threads there are or which one draws which array.  The workers
    only draw numbers and call nothing else.
    """
    streams = np.random.SeedSequence(seed).spawn(len(shapes))

    def draw(stream, shape):
        return np.random.default_rng(stream).normal(0.0, std, size=shape)

    with ThreadPoolExecutor(max_workers=min(_INIT_WORKERS, os.cpu_count() or 1)) as pool:
        return dict(zip(shapes, pool.map(draw, streams, shapes.values())))


@dataclass
class EncoderConfig:
    vocab_size: int = 512
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_len: int = 64
    pooling: str = "cls"          # "cls" or "mean"
    layer_norm_eps: float = 1e-12
    init_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ShapeMismatch(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.pooling not in ("cls", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")


@dataclass
class _Cache:
    """Per-forward intermediates needed by backward."""
    ids: np.ndarray
    mask: np.ndarray
    layers: list = field(default_factory=list)
    pooled_from: np.ndarray | None = None


class NumpyTransformerEncoder:
    """Frozen-base transformer encoder over float64 numpy arrays."""

    def __init__(self, config: EncoderConfig, tokenizer, params: dict[str, np.ndarray] | None = None):
        config.validate()
        self.config = config
        self.tokenizer = tokenizer
        self.adapters: AdapterSet = AdapterSet()
        self._adapter_grads: dict[str, dict[str, np.ndarray]] = {}
        self.params = params if params is not None else self._init_params()
        self._check_param_shapes()

    # -- construction ------------------------------------------------------

    def _init_params(self) -> dict[str, np.ndarray]:
        c = self.config
        shapes = {"embeddings.word": (c.vocab_size, c.d_model),
                  "embeddings.position": (c.max_len, c.d_model)}
        for i in range(c.n_layers):
            for proj in ("query", "key", "value", "output"):
                shapes[f"layer.{i}.attn.{proj}.W"] = (c.d_model, c.d_model)
            shapes[f"layer.{i}.ffn.inner.W"] = (c.d_ff, c.d_model)
            shapes[f"layer.{i}.ffn.outer.W"] = (c.d_model, c.d_ff)
        w = _draw_normal(shapes, c.init_std, c.seed)

        p: dict[str, np.ndarray] = {}
        p["embeddings.word"] = w["embeddings.word"]
        p["embeddings.position"] = w["embeddings.position"]
        p["embeddings.token_type"] = np.zeros((2, c.d_model))
        p["embeddings.ln.gamma"] = np.ones(c.d_model)
        p["embeddings.ln.beta"] = np.zeros(c.d_model)
        for i in range(c.n_layers):
            for proj in ("query", "key", "value", "output"):
                p[f"layer.{i}.attn.{proj}.W"] = w[f"layer.{i}.attn.{proj}.W"]
                p[f"layer.{i}.attn.{proj}.b"] = np.zeros(c.d_model)
            p[f"layer.{i}.attn.ln.gamma"] = np.ones(c.d_model)
            p[f"layer.{i}.attn.ln.beta"] = np.zeros(c.d_model)
            p[f"layer.{i}.ffn.inner.W"] = w[f"layer.{i}.ffn.inner.W"]
            p[f"layer.{i}.ffn.inner.b"] = np.zeros(c.d_ff)
            p[f"layer.{i}.ffn.outer.W"] = w[f"layer.{i}.ffn.outer.W"]
            p[f"layer.{i}.ffn.outer.b"] = np.zeros(c.d_model)
            p[f"layer.{i}.ffn.ln.gamma"] = np.ones(c.d_model)
            p[f"layer.{i}.ffn.ln.beta"] = np.zeros(c.d_model)
        return p

    def _check_param_shapes(self) -> None:
        c = self.config
        if self.params["embeddings.word"].shape != (c.vocab_size, c.d_model):
            raise ShapeMismatch("embeddings.word does not match config")

    # -- interface surface -------------------------------------------------

    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def max_len(self) -> int:
        return self.config.max_len

    def named_weight_shapes(self) -> dict[str, tuple[int, int]]:
        """Weight matrices addressable for adapter injection, name -> (d_out, d_in)."""
        return {name[:-2]: tuple(arr.shape) for name, arr in self.params.items()
                if name.endswith(".W")}

    def adapter_targets(self, patterns=DEFAULT_TARGET_PATTERNS) -> list[str]:
        compiled = [re.compile(p) for p in patterns]
        return sorted(name for name in self.named_weight_shapes()
                      if any(rx.search(name) for rx in compiled))

    def build_adapters(self, rank: int, alpha: float, dropout_rate: float, seed: int,
                       patterns=DEFAULT_TARGET_PATTERNS) -> AdapterSet:
        """Create zero-init adapters for every matching weight matrix."""
        shapes = self.named_weight_shapes()
        adapters = AdapterSet()
        for k, name in enumerate(self.adapter_targets(patterns)):
            d_out, d_in = shapes[name]
            adapters.adapters[name] = init_adapter(
                d_in, d_out, rank, alpha, dropout_rate, seed=seed + k, target_name=name)
        return adapters

    def attach_adapters(self, adapters: AdapterSet) -> None:
        shapes = self.named_weight_shapes()
        for name, a in adapters:
            if name not in shapes:
                raise ShapeMismatch(f"no weight matrix named {name!r}")
            if shapes[name] != (a.d_out, a.d_in):
                raise ShapeMismatch(
                    f"adapter {name!r} is ({a.d_out},{a.d_in}), weight is {shapes[name]}")
        self.adapters = adapters

    def base_state_bytes(self) -> bytes:
        """Digest of all frozen parameters; used to verify the freeze contract."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tobytes())
        return h.digest()

    # -- forward -----------------------------------------------------------

    def _linear(self, name: str, x: np.ndarray, training: bool, rng, cache: list | None):
        """x W^T + b (+ the adapter delta); appends what backward needs to ``cache``
        unless it is None."""
        W = self.params[f"{name}.W"]
        y = _matmul_2d(x, W.T) + self.params[f"{name}.b"]
        entry = {"name": name}
        adapter = self.adapters.adapters.get(name)
        if adapter is not None:
            delta, saved = adapter_delta(adapter, x, training, rng)
            y = y + delta
            entry.update(adapter=adapter, saved=saved)
        if cache is not None:
            cache.append(entry)
        return y

    def _linear_backward(self, dy: np.ndarray, entry: dict) -> np.ndarray:
        name = entry["name"]
        dx = _matmul_2d(dy, self.params[f"{name}.W"])
        adapter = entry.get("adapter")
        if adapter is not None:
            dxd, dA, dB = adapter_backward(adapter, dy, entry["saved"])
            dx = dx + dxd
            g = self._adapter_grads.setdefault(name, {"A": np.zeros_like(adapter.A),
                                                      "B": np.zeros_like(adapter.B)})
            g["A"] += dA
            g["B"] += dB
        return dx

    @staticmethod
    def _layer_norm(x: np.ndarray, gamma, beta, eps: float):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        return gamma * xhat + beta, (xhat, inv, gamma)

    @staticmethod
    def _layer_norm_backward(dy: np.ndarray, ln_cache) -> np.ndarray:
        xhat, inv, gamma = ln_cache
        d = xhat.shape[-1]
        dxhat = dy * gamma
        return (inv / d) * (d * dxhat
                            - dxhat.sum(axis=-1, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))

    def _attention(self, i: int, x: np.ndarray, mask: np.ndarray, training, rng, lin_cache):
        c = self.config
        B, L, D = x.shape
        H, dh = c.n_heads, D // c.n_heads

        def split(t):
            return t.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

        q = split(self._linear(f"layer.{i}.attn.query", x, training, rng, lin_cache))
        k = split(self._linear(f"layer.{i}.attn.key", x, training, rng, lin_cache))
        v = split(self._linear(f"layer.{i}.attn.value", x, training, rng, lin_cache))

        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
        scores = scores + NEG_INF * (1.0 - mask)[:, None, None, :]
        scores = scores - scores.max(axis=-1, keepdims=True)
        expo = np.exp(scores)
        probs = expo / expo.sum(axis=-1, keepdims=True)

        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, L, D)
        out = self._linear(f"layer.{i}.attn.output", ctx, training, rng, lin_cache)
        if lin_cache is None:
            return out, None
        return out, {"q": q, "k": k, "v": v, "probs": probs}

    def _attention_backward(self, dout: np.ndarray, att, lin_cache_iter) -> np.ndarray:
        c = self.config
        q, k, v, probs = att["q"], att["k"], att["v"], att["probs"]
        B, H, L, dh = q.shape

        dctx = self._linear_backward(dout, next(lin_cache_iter))  # output proj
        dctx = dctx.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(dh)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        def merge_heads(t):
            return t.transpose(0, 2, 1, 3).reshape(B, L, H * dh)

        dxv = self._linear_backward(merge_heads(dv), next(lin_cache_iter))  # value proj
        dxk = self._linear_backward(merge_heads(dk), next(lin_cache_iter))  # key proj
        dxq = self._linear_backward(merge_heads(dq), next(lin_cache_iter))  # query proj
        return dxq + dxk + dxv

    def forward(self, ids: np.ndarray, mask: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None, return_cache: bool = False):
        """Pooled representations (B, d_model) for padded id/mask batches.

        With ``return_cache`` also the per-layer values ``backward_adapters``
        needs: each linear's adapter inputs, the attention q/k/v/probs, the
        LayerNorm statistics and the GELU derivative at the FFN input.
        Without it (every eval forward) none of these are kept past the layer
        that made them.
        """
        c = self.config
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask, dtype=float)
        if ids.ndim != 2 or ids.shape != mask.shape:
            raise ShapeMismatch(f"ids {ids.shape} vs mask {mask.shape}")
        if ids.shape[1] > c.max_len:
            raise ShapeMismatch(f"sequence length {ids.shape[1]} exceeds max_len {c.max_len}")
        L = ids.shape[1]

        cache = _Cache(ids=ids, mask=mask)
        p = self.params
        x = p["embeddings.word"][ids] + p["embeddings.position"][:L] + p["embeddings.token_type"][0]
        x, _ = self._layer_norm(x, p["embeddings.ln.gamma"], p["embeddings.ln.beta"], c.layer_norm_eps)

        for i in range(c.n_layers):
            lin_cache: list | None = [] if return_cache else None
            att_out, att = self._attention(i, x, mask, training, rng, lin_cache)
            h1, ln1 = self._layer_norm(x + att_out, p[f"layer.{i}.attn.ln.gamma"],
                                       p[f"layer.{i}.attn.ln.beta"], c.layer_norm_eps)
            u = self._linear(f"layer.{i}.ffn.inner", h1, training, rng, lin_cache)
            if return_cache:
                g, term = gelu(u, return_term=True)
                dgelu = gelu_grad(u, term)    # all that backward needs of u
            else:
                g = gelu(u)
            f_out = self._linear(f"layer.{i}.ffn.outer", g, training, rng, lin_cache)
            h2, ln2 = self._layer_norm(h1 + f_out, p[f"layer.{i}.ffn.ln.gamma"],
                                       p[f"layer.{i}.ffn.ln.beta"], c.layer_norm_eps)
            if return_cache:
                cache.layers.append({"lin": lin_cache, "att": att, "ln1": ln1, "ln2": ln2,
                                     "dgelu": dgelu})
            x = h2

        if c.pooling == "cls":
            pooled = x[:, 0, :]
        else:
            counts = mask.sum(axis=1, keepdims=True)
            pooled = (x * mask[:, :, None]).sum(axis=1) / counts
        cache.pooled_from = x
        if return_cache:
            return pooled, cache
        return pooled

    # -- backward ----------------------------------------------------------

    def backward_adapters(self, cache: _Cache, d_pooled: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Backprop d(pooled) through the stack; return {target: {A, B}} grads.

        Gradients for frozen base parameters are never materialized.
        """
        c = self.config
        self._adapter_grads = {}
        B, L, D = cache.pooled_from.shape

        if c.pooling == "cls":
            dx = np.zeros((B, L, D))
            dx[:, 0, :] = d_pooled
        else:
            counts = cache.mask.sum(axis=1, keepdims=True)
            dx = (d_pooled / counts)[:, None, :] * cache.mask[:, :, None]
            dx = np.ascontiguousarray(dx)

        for i in range(c.n_layers - 1, -1, -1):
            layer = cache.layers[i]
            # linears were cached in call order: q, k, v, att-out, ffn-in, ffn-out
            lin = layer["lin"]
            d_res2 = self._layer_norm_backward(dx, layer["ln2"])
            dg = self._linear_backward(d_res2, lin[5])         # ffn outer
            du = dg * layer["dgelu"]
            dh1 = d_res2 + self._linear_backward(du, lin[4])   # ffn inner
            d_res1 = self._layer_norm_backward(dh1, layer["ln1"])
            datt_in = self._attention_backward(
                d_res1, layer["att"], iter([lin[3], lin[2], lin[1], lin[0]]))
            dx = d_res1 + datt_in

        grads = self._adapter_grads
        self._adapter_grads = {}
        return grads

    # -- persistence -------------------------------------------------------

    def save_base(self, directory) -> None:
        write_atomic(os.path.join(directory, "config.json"),
                     json.dumps(self.config.__dict__, sort_keys=True, indent=2))
        buf = io.BytesIO()
        np.savez(buf, **self.params)
        write_atomic(os.path.join(directory, "weights.npz"), buf.getvalue())

    @classmethod
    def from_pretrained_dir(cls, directory, pooling: str = "cls") -> "NumpyTransformerEncoder":
        """Load a BERT-style encoder exported by ``hf_export`` (or save_base)."""
        cfg_path = os.path.join(directory, "config.json")
        weights_path = os.path.join(directory, "weights.npz")
        vocab_path = os.path.join(directory, "vocab.txt")
        for path in (cfg_path, weights_path):
            if not os.path.exists(path):
                raise EncoderUnavailable(
                    f"{path} not found; export the encoder weights first "
                    "(see medcascade.hf_export.export_encoder)")
        with open(cfg_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = set(EncoderConfig.__dataclass_fields__)
        config = EncoderConfig(**{k: v for k, v in raw.items() if k in known})
        config.pooling = pooling
        with np.load(weights_path) as data:
            params = {name: np.asarray(data[name], dtype=float) for name in data.files}
        if os.path.exists(vocab_path):
            tokenizer = WordPieceTokenizer.from_vocab_file(
                vocab_path, do_lower_case=bool(raw.get("do_lower_case", False)))
        else:
            tokenizer = HashWordTokenizer(config.vocab_size)
        return cls(config, tokenizer, params=params)


def build_toy_encoder(seed: int = 0, **overrides) -> NumpyTransformerEncoder:
    """The small randomly initialized encoder used for desk-scale runs."""
    config = EncoderConfig(seed=seed, **overrides)
    return NumpyTransformerEncoder(config, HashWordTokenizer(config.vocab_size))


def resolve_encoder(backend_id: str, weights_dir: str | None = None, seed: int = 0,
                    pooling: str = "cls", **toy_overrides) -> NumpyTransformerEncoder:
    """Map a backend identifier from config to an encoder instance."""
    if backend_id == "toy":
        return build_toy_encoder(seed=seed, pooling=pooling, **toy_overrides)
    if backend_id in PRETRAINED_BACKENDS or weights_dir:
        if not weights_dir:
            raise EncoderUnavailable(
                f"backend {backend_id!r} needs model.weights_dir pointing at exported "
                "weights (medcascade.hf_export.export_encoder writes them)")
        return NumpyTransformerEncoder.from_pretrained_dir(weights_dir, pooling=pooling)
    raise EncoderUnavailable(f"unknown encoder backend {backend_id!r}")
