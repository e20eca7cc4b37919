"""Low-rank adapters, from scratch.

An adapter attaches two trainable factors (A, B) to a frozen weight matrix W
so the effective map becomes  x -> W x + (alpha / r) * B (A x).  B starts at
zero, so a freshly attached adapter leaves the base model untouched, and the
update can later be folded into W with :func:`merge`.

Defaults follow the fine-tuning regime this package targets: rank 16,
alpha 8 (scale alpha/r = 0.5), dropout 5% on the adapter input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .errors import RankTooLarge, ShapeMismatch

DEFAULT_RANK = 16
DEFAULT_ALPHA = 8.0
DEFAULT_DROPOUT = 0.05

# LoRA's placement, in PEFT's spelling: the attention query and value
# projections of every block (``encoder.layer.<i>.attention.self.query``).
DEFAULT_TARGET_PATTERNS = ("query", "value")


@dataclass
class LoraAdapter:
    """Low-rank factors for one adapted weight matrix.

    A has shape (r, d_in), B has shape (d_out, r).  The scaling applied in
    both the forward contribution and the merge is exactly alpha / r.
    """

    A: np.ndarray
    B: np.ndarray
    rank: int
    alpha: float
    dropout_rate: float

    @property
    def d_in(self) -> int:
        return self.A.shape[1]

    @property
    def d_out(self) -> int:
        return self.B.shape[0]

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


def init_adapter(d_in: int, d_out: int, r: int = DEFAULT_RANK, alpha: float = DEFAULT_ALPHA,
                 dropout_rate: float = DEFAULT_DROPOUT, seed: int = 0) -> LoraAdapter:
    """Create a fresh adapter: A ~ N(0, (1/r)^2), B = 0.

    Zero B guarantees the adapted model initially equals the base model.
    Deterministic in ``seed``.
    """
    if r < 1:
        raise RankTooLarge(f"rank must be >= 1, got {r}")
    if r > min(d_in, d_out):
        raise RankTooLarge(f"rank {r} exceeds min(d_in={d_in}, d_out={d_out})")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 1.0 / r, size=(r, d_in))
    B = np.zeros((d_out, r))
    return LoraAdapter(A=A, B=B, rank=r, alpha=float(alpha), dropout_rate=float(dropout_rate))


def _check_vector_dim(name: str, arr: np.ndarray, dim: int) -> None:
    if arr.shape[-1] != dim:
        raise ShapeMismatch(f"{name} has trailing dim {arr.shape[-1]}, expected {dim}")


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask of inverted dropout: an entry is kept with
    probability 1 - rate, and a kept entry is scaled by 1/(1-rate)."""
    return rng.random(shape) >= rate


def adapter_delta(adapter: LoraAdapter, x: np.ndarray, training: bool = False,
                  rng: np.random.Generator | None = None) -> tuple[np.ndarray, tuple]:
    """(alpha/r) * B (A d(x)), plus the values :func:`adapter_backward` needs.

    ``d`` is inverted dropout on x when ``training`` and the adapter has a
    nonzero dropout rate; identity otherwise.  Accepts single vectors or any
    batch of vectors along leading axes.  The dropout mask is kept as
    booleans, one byte per entry.
    """
    keep = None
    if training and adapter.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode adapter forward with dropout needs an rng")
        keep = dropout_mask(x.shape, adapter.dropout_rate, rng)
        x = x * (keep / (1.0 - adapter.dropout_rate))
    z = x @ adapter.A.T
    return adapter.scaling * (z @ adapter.B.T), (x, z, keep)


def adapter_backward(adapter: LoraAdapter, dy: np.ndarray, saved: tuple,
                     need_dx: bool = True) -> tuple:
    """Gradients (dx, dA, dB) of the adapter delta, given d(delta) = ``dy``;
    dx is None without ``need_dx``."""
    xd, z, keep = saved
    scale = adapter.scaling
    dB = scale * dy.reshape(-1, adapter.d_out).T @ z.reshape(-1, adapter.rank)
    dz = scale * (dy @ adapter.B)
    dA = dz.reshape(-1, adapter.rank).T @ xd.reshape(-1, adapter.d_in)
    if not need_dx:
        return None, dA, dB
    dx = dz @ adapter.A
    if keep is not None:   # the forward's scaled mask, rebuilt bit for bit
        dx = dx * (keep / (1.0 - adapter.dropout_rate))
    return dx, dA, dB


def adapted_forward(adapter: LoraAdapter, base_output: np.ndarray, x: np.ndarray,
                    training: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
    """base_output + (alpha/r) * B (A d(x)); see :func:`adapter_delta`."""
    base_output = np.asarray(base_output, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_vector_dim("x", x, adapter.d_in)
    _check_vector_dim("base_output", base_output, adapter.d_out)
    return base_output + adapter_delta(adapter, x, training, rng)[0]


def merge(adapter: LoraAdapter, W: np.ndarray) -> np.ndarray:
    """Fold the adapter into a plain weight matrix: W + (alpha/r) * B A."""
    W = np.asarray(W, dtype=float)
    if W.shape != (adapter.d_out, adapter.d_in):
        raise ShapeMismatch(
            f"W has shape {W.shape}, adapter expects ({adapter.d_out}, {adapter.d_in})")
    return W + adapter.scaling * (adapter.B @ adapter.A)


def count_trainable(adapters: dict[str, LoraAdapter],
                    head_dims: list[tuple[int, int]] | None = None) -> int:
    """Trainable-parameter count: sum of r*(d_in+d_out) over adapters plus
    (d_in*n_out + n_out) per affine head.  This must equal the number of
    parameters the optimizer actually updates."""
    total = sum(a.rank * (a.d_in + a.d_out) for a in adapters.values())
    for d_in, n_out in head_dims or []:
        total += d_in * n_out + n_out
    return total


def save_adapter_set(path, adapters: dict[str, LoraAdapter], heads: dict[str, dict[str, np.ndarray]] | None = None,
                     extra_meta: dict | None = None) -> None:
    """Write adapters (+ optional head weights) to a self-describing .npz.

    The container holds only trainable parameters, so it loads independently
    of the base-encoder weights.
    """
    arrays: dict[str, np.ndarray] = {}
    meta = {
        "format": "medcascade-adapters",
        "version": 1,
        "adapters": {},
        "heads": sorted(heads) if heads else [],
    }
    if extra_meta:
        meta["extra"] = extra_meta
    for i, (name, a) in enumerate(sorted(adapters.items())):
        key = f"adapter{i}"
        arrays[f"{key}.A"] = a.A
        arrays[f"{key}.B"] = a.B
        meta["adapters"][key] = {
            "target_name": name,
            "rank": a.rank,
            "alpha": a.alpha,
            "dropout_rate": a.dropout_rate,
        }
    for task, params in (heads or {}).items():
        arrays[f"head.{task}.W"] = params["W"]
        arrays[f"head.{task}.b"] = params["b"]
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    write_atomic(path, lambda fh: np.savez(fh, **arrays))


def load_adapter_set(path) -> tuple[dict[str, LoraAdapter], dict[str, dict[str, np.ndarray]], dict]:
    """Inverse of :func:`save_adapter_set`. Returns (adapters, heads, extra_meta)."""
    with open(path, "rb") as fh, np.load(fh) as data:   # np.load(path) leaks on a bad archive
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8")) if "__meta__" in data else {}
        if meta.get("format") != "medcascade-adapters":
            raise ValueError(f"{path} is not an adapter checkpoint")
        adapters = {info["target_name"]: LoraAdapter(
            A=data[f"{key}.A"], B=data[f"{key}.B"], rank=info["rank"],
            alpha=info["alpha"], dropout_rate=info["dropout_rate"])
            for key, info in meta["adapters"].items()}
        heads = {task: {"W": data[f"head.{task}.W"], "b": data[f"head.{task}.b"]}
                 for task in meta["heads"]}
    return adapters, heads, meta.get("extra", {})
