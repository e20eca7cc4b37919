"""Numpy transformer encoder with adapter injection and manual backprop.

One architecture serves two roles: a tiny randomly initialized encoder for
desk-scale training and tests ("toy"), and a BERT-compatible encoder loaded
from a Hugging Face BERT snapshot as it is downloaded (``config.json``,
``model.safetensors`` and optionally ``vocab.txt`` and
``tokenizer_config.json``), read with numpy alone.  The layout per block is
post-LayerNorm:

    h1 = LN(x + SelfAttention(x))
    h2 = LN(h1 + FFN(h1))

Each base parameter is named as in a Hugging Face BERT checkpoint, without
``bert.`` (``encoder.layer.0.attention.self.query.weight``), and each adapter
target as the module that owns the weight
(``encoder.layer.0.attention.self.query``), so a snapshot is read and
written without renaming.

Base parameters are always frozen and read-only, random and pretrained alike.
Gradients are computed only for attached low-rank adapters; classification
heads live in ``trainer``.  The backward pass therefore threads d(pooled)
down through every block, collects adapter gradients along the way, and
discards everything else.

Hot-path choices:

- Padding-free: the forward packs the real tokens (``mask != 0``) of the
  batch into one ``(N, d_model)`` matrix, row-major.  Embeddings, every
  linear layer (one 2-D GEMM), residual adds, LayerNorm and GELU run on
  those N rows; only the attention core scatters q/k/v into the padded
  ``(B, H, L, d_head)`` layout and gathers the context back.  Padding, up to
  the batch's longest sequence, therefore shapes the attention core only.
- The output is the top-layer [CLS] state, so the top layer computes keys
  and values for all N rows but everything else (query, attention core,
  output projection, FFN, both LayerNorms) for the B [CLS] rows only.
- Backward mirrors the forward, and at layer 0, below which nothing trains,
  it back-propagates only into adapters: no input gradient is formed.
- A training forward evaluates erf once per GELU and keeps the GELU
  derivative for backward; an eval forward keeps no per-layer cache.
- A training cache is single-use: backward frees each layer's entry as it
  finishes with it, so one step's activations are gone before the next
  forward builds its own.  Adapter dropout masks are kept as booleans.
- Random base weights are drawn one matrix per child seed stream, on a few
  threads, so they depend on the seed and shapes only.
- Every base, random or pretrained, is one flat float64 array built by
  ``frozen_base``.  ``train`` fills it once per workdir in memory (a random
  base is drawn into it, a snapshot's tensors are read from
  ``model.safetensors``) and publishes it as ``<workdir>/encoders/<key>.npy``;
  the filling process keeps its frozen array, and every later one maps that
  file read-only instead of drawing or loading again.  A write into the base
  raises either way, so the freeze contract holds by construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atomic import check_types, file_digest, text_digest, write_atomic, write_json
from .errors import CorruptArtifact, EncoderUnavailable, ShapeMismatch, VocabInvalid
from .lora import (DEFAULT_TARGET_PATTERNS, LoraAdapter, adapter_backward, adapter_delta,
                   init_adapter)
from .tokenizers import HashWordTokenizer, WordPieceTokenizer

NEG_INF = -1e30
_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INIT_WORKERS = 4      # threads drawing the random base weights, at most one per CPU
_KEPT_BASES = 3        # a store keeps this many most recently used bases: the paper's encoders

# The published Arabic encoders this pipeline targets; usable once a snapshot
# of one is downloaded (they need a weights_dir, not a network call).
PRETRAINED_BACKENDS = (
    "CAMeL-Lab/bert-base-arabic-camelbert-mix",
    "aubmindlab/bert-base-arabert",
    "asafaya/bert-base-arabic",
)


# Each EncoderConfig field a snapshot's config.json sets: Hugging Face's key,
# and BertConfig's default for a missing key.
_HF_CONFIG = {"vocab_size": ("vocab_size", 30522), "d_model": ("hidden_size", 768),
              "n_layers": ("num_hidden_layers", 12), "n_heads": ("num_attention_heads", 12),
              "d_ff": ("intermediate_size", 3072),
              "max_len": ("max_position_embeddings", 512),
              "layer_norm_eps": ("layer_norm_eps", 1e-12)}
# The architecture the encoder computes, as BertConfig names it and defaults to.
_HF_REQUIRED = {"hidden_act": "gelu", "position_embedding_type": "absolute"}
_DTYPES = {"F32": "<f4", "F64": "<f8"}   # the safetensors dtypes a snapshot's weights may have


def gelu(x: np.ndarray, return_term: bool = False):
    """Exact GELU, ``0.5 x (1 + erf(x/√2))``; with ``return_term`` also the
    ``1 + erf(x/√2)`` term, so :func:`gelu_grad` need not evaluate erf again.
    scipy is imported on first use: only GELU needs it, and the stages that
    never run the encoder start without it."""
    from scipy.special import erf
    term = 1.0 + erf(x * _SQRT1_2)
    y = 0.5 * x * term
    return (y, term) if return_term else y


def gelu_grad(x: np.ndarray, term: np.ndarray) -> np.ndarray:
    """d gelu / dx; ``term`` is the one :func:`gelu` returns for the same x."""
    return 0.5 * term + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _draw_normal(views: dict[str, np.ndarray], std: float, seed: int) -> None:
    """Fill each array with N(0, std^2) draws from its own child stream of
    ``SeedSequence(seed)`` (the k-th name gets the k-th child).

    ``standard_normal(out=view)`` then ``view *= std`` gives the bits of
    ``normal(0, std, size=view.shape)`` without a temporary.  The draws run on
    a few threads (numpy releases the GIL while it fills an array); since
    every array has its own stream, the values do not depend on how many
    threads there are or which one draws which array.  The workers only draw
    numbers and call nothing else.
    """
    streams = np.random.SeedSequence(seed).spawn(len(views))

    def draw(stream, view):
        np.random.default_rng(stream).standard_normal(out=view)
        view *= std

    with ThreadPoolExecutor(max_workers=min(_INIT_WORKERS, os.cpu_count() or 1)) as pool:
        list(pool.map(draw, streams, views.values()))


@dataclass
class EncoderConfig:
    vocab_size: int = 512
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_len: int = 64
    layer_norm_eps: float = 1e-12
    init_std: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        least = {"vocab_size": HashWordTokenizer.n_reserved + 1, "d_model": 1, "n_layers": 1,
                 "n_heads": 1, "d_ff": 1, "max_len": 1}
        for key, value in least.items():
            if getattr(self, key) < value:
                raise ShapeMismatch(f"{key} must be >= {value}, got {getattr(self, key)}")
        if self.d_model % self.n_heads != 0:
            raise ShapeMismatch(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


def _base_shapes(c: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every base parameter's shape under its Hugging Face BERT name (without
    ``bert.``), in parameter order."""
    shapes = {"embeddings.word_embeddings.weight": (c.vocab_size, c.d_model),
              "embeddings.position_embeddings.weight": (c.max_len, c.d_model),
              "embeddings.token_type_embeddings.weight": (2, c.d_model)}

    def module(name, *weight):   # a linear layer's (d_out, d_in), or a LayerNorm's (d,)
        shapes[f"{name}.weight"], shapes[f"{name}.bias"] = weight, weight[:1]

    module("embeddings.LayerNorm", c.d_model)
    for i in range(c.n_layers):
        layer = f"encoder.layer.{i}."
        for proj in ("self.query", "self.key", "self.value", "output.dense"):
            module(f"{layer}attention.{proj}", c.d_model, c.d_model)
        module(f"{layer}attention.output.LayerNorm", c.d_model)
        module(f"{layer}intermediate.dense", c.d_ff, c.d_model)
        module(f"{layer}output.dense", c.d_model, c.d_ff)
        module(f"{layer}output.LayerNorm", c.d_model)
    return shapes


def _base_views(flat: np.ndarray, c: EncoderConfig) -> dict[str, np.ndarray]:
    """The base parameters laid out over ``flat`` in parameter order."""
    views, at = {}, 0
    for name, shape in _base_shapes(c).items():
        size = int(np.prod(shape))
        views[name] = flat[at:at + size].reshape(shape)
        at += size
    return views


def _fill_base(views: dict[str, np.ndarray], c: EncoderConfig) -> None:
    """Gaussian weight matrices and word and position embeddings, LayerNorm
    gains of one, zero biases and token-type embeddings."""
    drawn = {}
    for name, view in views.items():
        if name.endswith(".bias") or name.startswith("embeddings.token_type"):
            view.fill(0.0)
        elif "LayerNorm" in name:
            view.fill(1.0)
        else:
            drawn[name] = view
    _draw_normal(drawn, c.init_std, c.seed)


def _key(decides) -> str:
    """Names a stored base by the JSON form of what decides its bytes, and by
    this module's source, which fixes the layout."""
    return text_digest(json.dumps([decides, file_digest(__file__)], sort_keys=True))


def base_key(c: EncoderConfig) -> str:
    """Names a random base by what decides its bytes: the shapes, ``init_std``
    and ``seed``, numpy's version (``Generator`` streams may change between
    versions) and this module's source."""
    decides = {k: getattr(c, k) for k in ("vocab_size", "d_model", "n_layers", "d_ff",
                                          "max_len", "init_std", "seed")}
    return _key([decides, np.__version__])


def export_digests(directory) -> dict[str, str | None]:
    """The ``file_digest`` of each file of the snapshot in ``directory`` that
    the encoder reads, by name.  ``train`` takes them once per invocation, for
    the cell's state and for the snapshot's key in the base store."""
    return {name: file_digest(os.path.join(directory, name)) for name in
            ("config.json", "model.safetensors", "vocab.txt", "tokenizer_config.json")}


def frozen_base(c: EncoderConfig, store_dir: str | None, key: str | None,
                fill: Callable[[dict[str, np.ndarray]], None]) -> dict[str, np.ndarray]:
    """The base parameters of ``c``, read-only views over one flat float64
    array that ``fill(views)`` writes, so that no code can move a frozen base.

    With ``store_dir``, a valid ``<store_dir>/<key>.npy`` (such an array of
    the right size) is mapped read-only.  Otherwise ``fill`` writes a fresh
    array in memory, which is frozen by clearing numpy's writeable flag and,
    with a store, published with ``np.save`` to a temp file that replaces the
    stored one atomically; a fill that raises publishes nothing.  So the
    process that fills a base computes on its own array, and every later
    process maps the file and shares its pages (as does a pool forked once
    the base is built); a write into the base raises ``ValueError`` either
    way.  Another process's sweep may remove the file as soon as it is
    published, but not the filler's array.  Each use sets the file's mtime; a
    newly published base removes all but the ``_KEPT_BASES`` most recently
    used, so stale keys do not pile up and a grid alternating between
    encoders fills each once.
    """
    c.validate()
    size = sum(int(np.prod(shape)) for shape in _base_shapes(c).values())
    flat = path = None
    if store_dir is not None:
        path = os.path.join(store_dir, f"{key}.npy")
        with contextlib.suppress(OSError, ValueError):   # missing, or not an .npy that maps
            stored = np.lib.format.open_memmap(path, mode="r")
            if stored.dtype == np.float64 and stored.shape == (size,) \
                    and os.path.getsize(path) == stored.offset + stored.nbytes:
                flat = stored.view(np.ndarray)   # a plain array over the map
    filled = flat is None
    if filled:
        flat = np.empty(size)
        fill(_base_views(flat, c))
        flat.flags.writeable = False
        if path is not None:
            write_atomic(path, lambda fh: np.save(fh, flat))
    if path is None:
        return _base_views(flat, c)
    # the clock's time, finer than the kernel's file times, keeps quick uses in
    # order; a base swept meanwhile, or a read-only store, keeps its mtime
    with contextlib.suppress(OSError):
        os.utime(path, ns=(time.time_ns(),) * 2)
    if filled:
        with contextlib.suppress(FileNotFoundError):   # removed meanwhile: swept next time
            bases = [entry for entry in os.scandir(store_dir) if entry.name.endswith(".npy")]
            bases.sort(key=lambda entry: entry.stat().st_mtime_ns, reverse=True)
            for stale in bases[_KEPT_BASES:]:
                os.remove(stale.path)
    return _base_views(flat, c)


def random_base(c: EncoderConfig, store_dir: str | None = None) -> dict[str, np.ndarray]:
    """The random-init base parameters: a :func:`frozen_base` drawn by
    :func:`_fill_base` and kept under :func:`base_key`."""
    return frozen_base(c, store_dir, base_key(c), lambda views: _fill_base(views, c))


def _safetensors_index(fh, size: int) -> tuple[int, dict]:
    """The byte buffer's offset in the safetensors file ``fh`` of ``size`` bytes,
    and each tensor's header entry by its name without ``bert.``; ``ValueError``
    for a header longer than the file, or offsets that overlap or run past it."""
    length = int.from_bytes(fh.read(8), "little")
    if length > size - 8:   # also a file shorter than the length itself
        raise ValueError(f"a header of {length} bytes in a file of {size}")
    header = json.loads(fh.read(length))
    header.pop("__metadata__", None)
    end = 0
    for name, entry in sorted(header.items(), key=lambda item: item[1]["data_offsets"]):
        begin, stop = entry["data_offsets"]
        if not end <= begin <= stop <= size - 8 - length:
            raise ValueError(f"tensor {name}'s bytes {begin}..{stop} overlap another's "
                             "or run past the file")
        end = stop
    return 8 + length, {name.removeprefix("bert."): entry for name, entry in header.items()}


@dataclass
class _Rows:
    """Where the rows of a packed ``(N, D)`` matrix sit in a padded ``(B, L)``
    batch: ``flat`` holds each row's index into the B*L positions, in
    row-major order."""
    shape: tuple[int, int]
    flat: np.ndarray

    def scatter(self, t: np.ndarray) -> np.ndarray:
        """Packed ``(N, D)`` -> padded ``(B, L, D)``, zeros where no row sits."""
        out = np.zeros((self.shape[0] * self.shape[1], t.shape[-1]))
        out[self.flat] = t
        return out.reshape(*self.shape, -1)

    def gather(self, t: np.ndarray) -> np.ndarray:
        """Padded ``(B, L, D)`` -> packed ``(N, D)``."""
        return t.reshape(self.shape[0] * self.shape[1], -1)[self.flat]


@dataclass
class _Cache:
    """Per-forward intermediates needed by backward."""
    rows: _Rows             # the packed real tokens
    first: np.ndarray       # (B,) packed row of each sequence's position 0
    layers: list = field(default_factory=list)


class NumpyTransformerEncoder:
    """Frozen-base transformer encoder over float64 numpy arrays."""

    def __init__(self, config: EncoderConfig, tokenizer, params: dict[str, np.ndarray]):
        config.validate()
        self.config = config
        self.tokenizer = tokenizer
        self.adapters: dict[str, LoraAdapter] = {}   # keyed by target name
        self.params = params
        for name, shape in _base_shapes(config).items():   # extra arrays are ignored
            if name not in params or params[name].shape != shape:
                got = params[name].shape if name in params else "missing"
                raise ShapeMismatch(f"parameter {name} is {got}, the config implies {shape}")

    # -- interface surface -------------------------------------------------

    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def max_len(self) -> int:
        return self.config.max_len

    def named_weight_shapes(self) -> dict[str, tuple[int, int]]:
        """Weight matrices addressable for adapter injection, by module name
        (``encoder.layer.0.attention.self.query``) -> (d_out, d_in)."""
        return {name.removesuffix(".weight"): tuple(arr.shape) for name, arr in self.params.items()
                if name.startswith("encoder.") and arr.ndim == 2}

    def adapter_targets(self, patterns=DEFAULT_TARGET_PATTERNS) -> list[str]:
        """The weight matrices some pattern matches (``re.search``), sorted;
        ``ShapeMismatch`` for no pattern, or for one that matches none."""
        if not patterns:
            raise ShapeMismatch("no adapter target patterns given")
        names = self.named_weight_shapes()
        targets = set()
        for pattern in patterns:
            matched = {name for name in names if re.search(pattern, name)}
            if not matched:
                raise ShapeMismatch(f"adapter target {pattern!r} matches no weight matrix; "
                                    f"their names read like {next(iter(names))!r}")
            targets |= matched
        return sorted(targets)

    def build_adapters(self, rank: int, alpha: float, dropout_rate: float, seed: int,
                       patterns=DEFAULT_TARGET_PATTERNS) -> dict[str, LoraAdapter]:
        """Create zero-init adapters for every matching weight matrix."""
        shapes = self.named_weight_shapes()
        adapters = {}
        for k, name in enumerate(self.adapter_targets(patterns)):
            d_out, d_in = shapes[name]
            adapters[name] = init_adapter(d_in, d_out, rank, alpha, dropout_rate, seed=seed + k)
        return adapters

    def attach_adapters(self, adapters: dict[str, LoraAdapter]) -> None:
        shapes = self.named_weight_shapes()
        for name, a in adapters.items():
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
        y = x @ self.params[f"{name}.weight"].T + self.params[f"{name}.bias"]
        entry = {"name": name}
        adapter = self.adapters.get(name)
        if adapter is not None:
            delta, saved = adapter_delta(adapter, x, training, rng)
            y = y + delta
            entry.update(adapter=adapter, saved=saved)
        if cache is not None:
            cache.append(entry)
        return y

    def _linear_backward(self, dy: np.ndarray, entry: dict, grads: dict, need_dx: bool = True):
        """Puts the adapter's (dA, dB) in ``grads`` under its target name; returns
        d(input), or None without ``need_dx``."""
        name = entry["name"]
        dx = dy @ self.params[f"{name}.weight"] if need_dx else None
        adapter = entry.get("adapter")
        if adapter is not None:
            dxd, dA, dB = adapter_backward(adapter, dy, entry["saved"], need_dx=need_dx)
            if need_dx:
                dx = dx + dxd
            grads[name] = {"A": dA, "B": dB}
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

    def _heads(self, t: np.ndarray, rows: _Rows) -> np.ndarray:
        """Packed ``(n, D)`` -> padded ``(B, H, l, d_head)``."""
        H = self.config.n_heads
        return rows.scatter(t).reshape(*rows.shape, H, -1).transpose(0, 2, 1, 3)

    @staticmethod
    def _merge_heads(t: np.ndarray, rows: _Rows) -> np.ndarray:
        """Padded ``(B, H, l, d_head)`` -> packed ``(n, D)``."""
        return rows.gather(t.transpose(0, 2, 1, 3))

    def _attention(self, i: int, xq: np.ndarray, x: np.ndarray, q_rows: _Rows, rows: _Rows,
                   mask: np.ndarray, training, rng, lin_cache):
        """Self-attention output for the query rows ``xq`` (placed by ``q_rows``)
        over the keys and values of the packed rows ``x`` (placed by ``rows``)."""
        attention = f"encoder.layer.{i}.attention."

        def project(proj, t, at):
            return self._heads(self._linear(f"{attention}self.{proj}", t, training, rng,
                                            lin_cache), at)

        q, k, v = project("query", xq, q_rows), project("key", x, rows), project("value", x, rows)

        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(q.shape[-1])
        scores = scores + NEG_INF * (1.0 - mask)[:, None, None, :]
        scores = scores - scores.max(axis=-1, keepdims=True)
        expo = np.exp(scores)
        probs = expo / expo.sum(axis=-1, keepdims=True)

        ctx = self._merge_heads(probs @ v, q_rows)
        out = self._linear(f"{attention}output.dense", ctx, training, rng, lin_cache)
        if lin_cache is None:
            return out, None
        return out, {"q": q, "k": k, "v": v, "probs": probs, "q_rows": q_rows}

    def _attention_backward(self, dout, att, lin: list, rows: _Rows, bottom: bool, grads: dict):
        """(d query rows, d key/value rows) from d(attention output).

        At the ``bottom`` layer nothing below trains: only the projections that
        carry an adapter are back-propagated, and both results are None.
        """
        q, k, v, probs, q_rows = att["q"], att["k"], att["v"], att["probs"], att["q_rows"]
        wanted_q, wanted_k, wanted_v = (not bottom or "adapter" in e for e in lin[:3])

        dctx = self._heads(self._linear_backward(dout, lin[3], grads), q_rows)  # output proj
        if wanted_v:
            dv = probs.transpose(0, 1, 3, 2) @ dctx
            dxv = self._linear_backward(self._merge_heads(dv, rows), lin[2], grads,
                                        need_dx=not bottom)
        if wanted_q or wanted_k:
            dprobs = dctx @ v.transpose(0, 1, 3, 2)
            dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
            dscores /= np.sqrt(q.shape[-1])
        if wanted_k:
            dk = dscores.transpose(0, 1, 3, 2) @ q
            dxk = self._linear_backward(self._merge_heads(dk, rows), lin[1], grads,
                                        need_dx=not bottom)
        if wanted_q:
            dq = dscores @ k
            dxq = self._linear_backward(self._merge_heads(dq, q_rows), lin[0], grads,
                                        need_dx=not bottom)
        if bottom:
            return None, None
        return dxq, dxk + dxv

    def forward(self, ids: np.ndarray, mask: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None):
        """The top-layer [CLS] states (B, d_model) of padded id/mask batches.

        Every sequence must start with an unmasked [CLS] at position 0.  The
        result does not depend on how far a batch is padded, to float64
        rounding.

        A training forward applies adapter dropout (drawn from ``rng``) and
        returns ``(pooled, cache)``: the cache holds the per-layer values
        ``backward_adapters`` needs, that is each linear's adapter inputs,
        the attention q/k/v/probs, the LayerNorm statistics and the GELU
        derivative at the FFN input, and serves one ``backward_adapters``
        call, which frees it layer by layer.  An eval forward returns
        ``pooled`` alone and keeps none of these past the layer that made
        them.
        """
        c = self.config
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask, dtype=float)
        if ids.ndim != 2 or ids.shape != mask.shape:
            raise ShapeMismatch(f"ids {ids.shape} vs mask {mask.shape}")
        B, L = ids.shape
        if L > c.max_len:
            raise ShapeMismatch(f"sequence length {L} exceeds max_len {c.max_len}")
        if L == 0 or np.any(mask[:, 0] == 0):
            raise ShapeMismatch("every sequence needs an unmasked [CLS] at position 0")

        seq, pos = np.nonzero(mask)
        rows = _Rows((B, L), seq * L + pos)
        cache = _Cache(rows=rows, first=np.flatnonzero(pos == 0))
        p = self.params

        def norm(name, t):
            return self._layer_norm(t, p[f"{name}.weight"], p[f"{name}.bias"], c.layer_norm_eps)

        x = p["embeddings.word_embeddings.weight"][ids[seq, pos]] \
            + p["embeddings.position_embeddings.weight"][pos] \
            + p["embeddings.token_type_embeddings.weight"][0]
        x, _ = norm("embeddings.LayerNorm", x)

        for i in range(c.n_layers):
            layer = f"encoder.layer.{i}."
            # only the top layer's [CLS] rows reach the output
            cls_only = i == c.n_layers - 1
            xq, q_rows = (x[cache.first], _Rows((B, 1), np.arange(B))) if cls_only else (x, rows)
            lin_cache: list | None = [] if training else None
            att_out, att = self._attention(i, xq, x, q_rows, rows, mask, training, rng, lin_cache)
            h1, ln1 = norm(f"{layer}attention.output.LayerNorm", xq + att_out)
            u = self._linear(f"{layer}intermediate.dense", h1, training, rng, lin_cache)
            if training:
                g, term = gelu(u, return_term=True)
                dgelu = gelu_grad(u, term)    # all that backward needs of u
            else:
                g = gelu(u)
            f_out = self._linear(f"{layer}output.dense", g, training, rng, lin_cache)
            h2, ln2 = norm(f"{layer}output.LayerNorm", h1 + f_out)
            if training:
                cache.layers.append({"lin": lin_cache, "att": att, "ln1": ln1, "ln2": ln2,
                                     "dgelu": dgelu})
            x = h2

        return (x, cache) if training else x

    # -- backward ----------------------------------------------------------

    def backward_adapters(self, cache: _Cache, d_pooled: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Backprop d(pooled) through the stack; return {target: {A, B}} grads.

        Gradients for frozen base parameters are never materialized, nor is
        any gradient below layer 0.  The cache is single-use: each layer's
        entry is taken off ``cache.layers`` as backward reaches it, top layer
        first, so its activations are freed as soon as they are used, and a
        second call on the same cache is a ``ValueError``.
        """
        c = self.config
        if len(cache.layers) != c.n_layers:
            raise ValueError(f"the cache holds {len(cache.layers)} of {c.n_layers} layers: "
                             "backward_adapters has already consumed it")
        grads: dict[str, dict[str, np.ndarray]] = {}
        dx = d_pooled     # the top layer's output rows are the [CLS] rows

        for i in range(c.n_layers - 1, -1, -1):
            layer = cache.layers.pop()
            # linears were cached in call order: q, k, v, att-out, ffn-in, ffn-out
            lin = layer["lin"]
            d_res2 = self._layer_norm_backward(dx, layer["ln2"])
            dg = self._linear_backward(d_res2, lin[5], grads)         # ffn outer
            du = dg * layer["dgelu"]
            dh1 = d_res2 + self._linear_backward(du, lin[4], grads)   # ffn inner
            d_res1 = self._layer_norm_backward(dh1, layer["ln1"])
            dxq, dxkv = self._attention_backward(d_res1, layer["att"], lin, cache.rows,
                                                 i == 0, grads)
            if i == 0:
                break
            if i == c.n_layers - 1:   # the [CLS]-only top layer
                dx = dxkv
                dx[cache.first] += d_res1 + dxq
            else:
                dx = d_res1 + (dxq + dxkv)
        return grads

    # -- persistence -------------------------------------------------------

    def save_base(self, directory) -> None:
        """Write the base as the Hugging Face BERT snapshot
        :meth:`from_pretrained_dir` reads: ``model.safetensors`` (F64 tensors
        under the encoder's own names, which are Hugging Face's), then
        ``config.json`` with Hugging Face's keys.  Each file is replaced
        atomically, so a save that fails part-way leaves the previous
        snapshot's files in place."""
        header, at = {}, 0
        for name, array in self.params.items():
            header[name] = {"dtype": "F64", "shape": list(array.shape),
                            "data_offsets": [at, at + array.size * 8]}
            at += array.size * 8
        head = json.dumps(header).encode()
        head += b" " * (-len(head) % 8)   # the buffer starts 8-byte aligned, as the spec asks

        def write(fh):
            fh.write(len(head).to_bytes(8, "little") + head)
            for array in self.params.values():
                fh.write(np.ascontiguousarray(array, dtype="<f8"))

        write_atomic(os.path.join(directory, "model.safetensors"), write)
        write_json(os.path.join(directory, "config.json"),
                   {hf: getattr(self.config, ours) for ours, (hf, _) in _HF_CONFIG.items()})

    @classmethod
    def from_pretrained_dir(cls, directory, store_dir: str | None = None,
                            digests: dict | None = None) -> "NumpyTransformerEncoder":
        """The encoder of a Hugging Face BERT snapshot (or :meth:`save_base`'s).

        ``config.json`` has Hugging Face's keys, a missing one meaning its
        default.  ``model.safetensors`` holds F32 or F64 tensors, named with or
        without ``bert.``; others (the pooler, ``cls.*``) are ignored.  An
        optional ``vocab.txt`` gives a WordPiece tokenizer, which takes
        ``do_lower_case`` (default true) and ``strip_accents`` from
        ``tokenizer_config.json``.  The base is a :func:`frozen_base` keyed by
        the :func:`export_digests` of ``config.json`` and
        ``model.safetensors``; filling it parses the header once and reads
        each tensor into its view.  A damaged snapshot is a ``UserError``
        naming the damaged file, or ``directory`` for a shape that its files
        cannot hold.
        """
        cfg_path = os.path.join(directory, "config.json")
        weights_path = os.path.join(directory, "model.safetensors")
        vocab_path = os.path.join(directory, "vocab.txt")
        tok_path = os.path.join(directory, "tokenizer_config.json")
        for path in (cfg_path, weights_path):
            if not os.path.exists(path):
                raise EncoderUnavailable(
                    f"{path} not found; model.weights_dir must name a Hugging Face BERT "
                    "snapshot: config.json, model.safetensors, and optionally vocab.txt "
                    "and tokenizer_config.json")

        def copy(views):
            try:
                with open(weights_path, "rb") as fh:
                    start, index = _safetensors_index(fh, os.fstat(fh.fileno()).st_size)
                    for name, view in views.items():
                        entry = index.get(name)
                        if entry is None or tuple(entry["shape"]) != view.shape:
                            got = "missing" if entry is None else entry["shape"]
                            raise ShapeMismatch(f"tensor {name} is {got}, the config "
                                                f"implies {list(view.shape)}")
                        dtype = _DTYPES.get(entry["dtype"])
                        begin, stop = entry["data_offsets"]
                        if dtype is None or stop - begin != view.size * np.dtype(dtype).itemsize:
                            raise ValueError(f"tensor {name} is {entry['dtype']} in "
                                             f"{stop - begin} bytes, not F32 or F64 of its shape")
                        fh.seek(start + begin)
                        view[...] = np.fromfile(fh, dtype, count=view.size).reshape(view.shape)
            except (OSError, *CorruptArtifact.DECODE_ERRORS) as e:
                raise EncoderUnavailable(
                    f"unreadable encoder export file {weights_path}: {e!r}") from e

        path = cfg_path   # the file being read, which an error names
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            fields = {ours: raw.get(hf, default) for ours, (hf, default) in _HF_CONFIG.items()}
            check_types(EncoderConfig, fields)
            tok_cfg = {}   # BertTokenizer's defaults: lower-case, and so strip accents
            if os.path.exists(tok_path):
                path = tok_path
                with open(path, encoding="utf-8") as fh:
                    tok_cfg = json.load(fh)
            lower, strip = bool(tok_cfg.get("do_lower_case", True)), tok_cfg.get("strip_accents")
        except (OSError, *CorruptArtifact.DECODE_ERRORS) as e:
            raise EncoderUnavailable(f"unreadable encoder export file {path}: {e!r}") from e
        for key, value in _HF_REQUIRED.items():
            if raw.get(key, value) != value:
                raise EncoderUnavailable(f"{cfg_path}: {key} {raw[key]!r} is not supported; "
                                         f"the encoder computes {value!r}")
        config = EncoderConfig(**fields)
        try:
            config.validate()   # the tokenizer needs a valid vocab_size
            # read before the base is filled, so that a damaged vocabulary fills none
            tokenizer = HashWordTokenizer(config.vocab_size)
            if os.path.exists(vocab_path):
                tokenizer = WordPieceTokenizer.from_vocab_file(vocab_path, do_lower_case=lower,
                                                               strip_accents=strip)
                top = max(tokenizer.vocab.values())
                if top >= config.vocab_size:
                    raise VocabInvalid(f"{vocab_path} has id {top}, outside the "
                                       f"{config.vocab_size} embeddings of {cfg_path}")
            key = None
            if store_dir is not None:
                digests = digests or export_digests(directory)
                key = _key(["export", digests["config.json"], digests["model.safetensors"]])
            params = frozen_base(config, store_dir, key, copy)
        except ShapeMismatch as e:
            raise ShapeMismatch(f"encoder export in {directory}: {e}") from e
        return cls(config, tokenizer, params=params)


def build_toy_encoder(seed: int = 0, store_dir: str | None = None,
                      **overrides) -> NumpyTransformerEncoder:
    """The small randomly initialized encoder used for desk-scale runs; its
    base is kept in ``store_dir`` if one is given (see :func:`random_base`)."""
    config = EncoderConfig(seed=seed, **overrides)
    params = random_base(config, store_dir)   # validates the config first
    return NumpyTransformerEncoder(config, HashWordTokenizer(config.vocab_size), params=params)


def resolve_encoder(backend_id: str, weights_dir: str | None = None, seed: int = 0,
                    store_dir: str | None = None, digests: dict | None = None,
                    **toy_overrides) -> NumpyTransformerEncoder:
    """Map a backend identifier from config to an encoder instance.

    A set ``weights_dir`` is loaded whatever the backend id, ``toy`` included
    (``digests`` are its :func:`export_digests`, if already taken); without
    one, ``toy`` is the randomly initialized encoder.  Either base is kept in
    ``store_dir`` if one is given.
    """
    if weights_dir:
        return NumpyTransformerEncoder.from_pretrained_dir(
            weights_dir, store_dir=store_dir, digests=digests)
    if backend_id == "toy":
        return build_toy_encoder(seed=seed, store_dir=store_dir, **toy_overrides)
    if backend_id in PRETRAINED_BACKENDS:
        raise EncoderUnavailable(
            f"backend {backend_id!r} needs model.weights_dir naming a downloaded Hugging "
            "Face snapshot of it (config.json, model.safetensors, vocab.txt)")
    raise EncoderUnavailable(f"unknown encoder backend {backend_id!r}")
