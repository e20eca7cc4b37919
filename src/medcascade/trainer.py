"""Multi-task fine-tuning on top of a frozen encoder.

Only adapter factors and the per-task affine heads train; the optimizer is
AdamW with linear warmup over 10% of steps then linear decay.  Class
imbalance is handled in the loss: each example's cross-entropy is weighted
by its target class weight and the batch is normalized by the sum of applied
weights, which reduces to plain mean cross-entropy when all weights are one.

Defaults (batch size 4, 25 epochs, LoRA rank 16 / alpha 8 / dropout 5%)
are the regime this package targets end to end.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .corpus import TASKS, label_counts
from .errors import EmptyClass, IndexOutOfVocab, NonFiniteLoss, VocabMismatch
from .evaluator import predict, score_predictions
from .variants import DatasetVariant, VariantExample


# -- loss ---------------------------------------------------------------------

def class_weights(counts: dict[str, int]) -> dict[str, float]:
    """Inverse-frequency weights: w(c) = N / (K * count(c)).

    Mean weight is exactly 1 when classes are balanced.
    """
    if not counts:
        raise EmptyClass("no classes given")
    for cls, count in counts.items():
        if count < 1:
            raise EmptyClass(f"class {cls!r} has count {count}")
    total = sum(counts.values())
    k = len(counts)
    return {cls: total / (k * count) for cls, count in counts.items()}


def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example cross-entropy and softmax probabilities, numerically stable."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expo = np.exp(shifted)
    z = expo.sum(axis=1, keepdims=True)
    probs = expo / z
    ce = np.log(z[:, 0]) - shifted[np.arange(len(targets)), targets]
    return ce, probs


def _check_targets(task: str, targets: np.ndarray, k: int) -> None:
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        bad = int(targets.min()) if targets.min() < 0 else int(targets.max())
        raise IndexOutOfVocab(f"task {task!r}: target index {bad} outside [0, {k})")


def weighted_loss(logits: dict[str, np.ndarray], targets: dict[str, np.ndarray],
                  weights: dict[str, np.ndarray] | None = None) -> float:
    """Sum over tasks of class-weighted, weight-normalized cross-entropy."""
    return weighted_loss_and_grad(logits, targets, weights)[0]


def weighted_loss_and_grad(logits: dict[str, np.ndarray], targets: dict[str, np.ndarray],
                           weights: dict[str, np.ndarray] | None = None,
                           ) -> tuple[float, dict[str, np.ndarray]]:
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for task, task_logits in logits.items():
        task_logits = np.asarray(task_logits, dtype=float)
        task_targets = np.asarray(targets[task], dtype=np.int64)
        n, k = task_logits.shape
        _check_targets(task, task_targets, k)
        ce, probs = _softmax_ce(task_logits, task_targets)
        if weights is not None and weights.get(task) is not None:
            w = np.asarray(weights[task], dtype=float)[task_targets]
        else:
            w = np.ones(n)
        w_sum = w.sum()
        total += float((w * ce).sum() / w_sum)
        dlogits = probs
        dlogits[np.arange(n), task_targets] -= 1.0
        grads[task] = dlogits * (w / w_sum)[:, None]
    return total, grads


# -- model --------------------------------------------------------------------

@dataclass
class MultiTaskModel:
    """Frozen encoder (optionally with adapters) plus one affine head per task."""

    encoder: object
    heads: dict[str, dict[str, np.ndarray]]
    task_vocabs: dict[str, list[str]]
    tasks: ClassVar[tuple[str, ...]] = TASKS

    @classmethod
    def build(cls, encoder, task_vocabs: dict[str, list[str]],
              head_seed: int = 0) -> "MultiTaskModel":
        rng = np.random.default_rng(head_seed)
        heads = {}
        for task in cls.tasks:
            k = len(task_vocabs[task])
            heads[task] = {"W": rng.normal(0.0, 0.02, size=(k, encoder.d_model)),
                           "b": np.zeros(k)}
        return cls(encoder=encoder, heads=heads, task_vocabs=dict(task_vocabs))

    def label_index(self, task: str, label: str, record_id: str = "?") -> int:
        try:
            return self.task_vocabs[task].index(label)
        except ValueError:
            raise VocabMismatch(
                f"record {record_id!r}: label {label!r} not in model's {task} vocabulary") from None

    def targets(self, variant: DatasetVariant) -> dict[str, np.ndarray]:
        """Each task's class index of every example's label, in example order."""
        return {task: np.asarray([self.label_index(task, ex.labels.get(task), ex.record_id)
                                  for ex in variant.examples], dtype=np.int64)
                for task in self.tasks}

    def encode_texts(self, examples: list[VariantExample]) -> tuple[np.ndarray, np.ndarray]:
        """(ids, mask) batch of the examples' ``encode_pair`` layouts, padded
        to its longest sequence."""
        tok = self.encoder.tokenizer
        seqs = [tok.encode_pair(ex.text, ex.aux, self.encoder.max_len) for ex in examples]
        width = max((len(seq) for seq in seqs), default=0)
        ids = np.full((len(seqs), width), tok.pad_id, dtype=np.int64)
        mask = np.zeros((len(seqs), width))
        for row, seq in enumerate(seqs):
            ids[row, : len(seq)] = seq
            mask[row, : len(seq)] = 1.0
        return ids, mask

    def forward(self, ids: np.ndarray, mask: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None):
        if training:
            pooled, cache = self.encoder.forward(ids, mask, training=True, rng=rng,
                                                 return_cache=True)
        else:
            pooled, cache = self.encoder.forward(ids, mask), None
        logits = {task: pooled @ self.heads[task]["W"].T + self.heads[task]["b"]
                  for task in self.tasks}
        return logits, pooled, cache

    def trainable_params(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for task in self.tasks:
            params[f"head.{task}.W"] = self.heads[task]["W"]
            params[f"head.{task}.b"] = self.heads[task]["b"]
        for name, adapter in self.encoder.adapters.items():
            params[f"adapter.{name}.A"] = adapter.A
            params[f"adapter.{name}.B"] = adapter.B
        return params

    def trainable_count(self) -> int:   # what AdamW updates
        return sum(arr.size for arr in self.trainable_params().values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.trainable_params().items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in self.trainable_params().items():
            arr[:] = snapshot[name]


# -- optimizer ------------------------------------------------------------------

class AdamW:
    """Decoupled-weight-decay adaptive moments over a flat parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr_scale: float = 1.0) -> None:
        self.t += 1
        lr = self.lr * lr_scale
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            p -= lr * (mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p)


def lr_schedule(step: int, total_steps: int, warmup_frac: float = 0.1) -> float:
    """Scale factor for 0-indexed ``step``: linear warmup, then linear decay."""
    warmup = max(1, round(warmup_frac * total_steps))
    if step < warmup:
        return (step + 1) / warmup
    return max(0.0, (total_steps - step) / max(1, total_steps - warmup))


# -- training -------------------------------------------------------------------

@dataclass
class TrainConfig:
    batch_size: int = 4
    epochs: int = 25
    learning_rate: float = 2e-4
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1 or self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("batch_size, epochs must be >= 1 and learning_rate > 0")


@dataclass
class TrainLog:
    rows: list[dict] = field(default_factory=list)

    def append(self, epoch: int, train_loss: float, val_acc: dict[str, float]) -> None:
        self.rows.append({"epoch": epoch, "train_loss": train_loss, "val_acc": val_acc})

    def to_csv(self) -> str:
        header = "epoch,train_loss," + ",".join(f"val_acc_{t}" for t in TASKS)
        lines = [header]
        for row in self.rows:
            cells = [str(row["epoch"]), repr(row["train_loss"])]
            cells += [repr(row["val_acc"][t]) for t in TASKS]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_epoch: int
    log: TrainLog
    steps_taken: int


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc <malloc.h>


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds at the ceilings its own adaptive policy can
    reach: blocks up to 32 MiB come from the heap, and up to 64 MiB of free
    heap top stay in the process.

    Backward frees a step's activations, and the next forward asks for the
    same sizes again.  With the adaptive defaults a free heap top over 128 KiB
    goes back to the kernel, so at the toy shape every step page-faulted its
    activations in afresh.  Only speed changes, never a value.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")   # glibc's soname
    except OSError:   # another C library: left as it is
        return
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(model: MultiTaskModel, train_set: DatasetVariant, val_set: DatasetVariant,
          cfg: TrainConfig) -> TrainResult:
    """Run cfg.epochs of seeded mini-batch AdamW over the training variant.

    Logs per-epoch train loss and per-task validation accuracy; returns the
    parameters of the epoch with the best validation average accuracy (the
    first such epoch on a tie), leaving the model at its final parameters.
    Deterministic in (model init, data, cfg.seed).
    """
    cfg.validate()
    _keep_freed_heap()
    for task in model.tasks:
        if model.heads[task]["W"].shape[0] != len(model.task_vocabs[task]):
            raise VocabMismatch(f"head for {task!r} has {model.heads[task]['W'].shape[0]} "
                                f"classes, vocabulary has {len(model.task_vocabs[task])}")

    train_targets = model.targets(train_set)
    val_targets = model.targets(val_set)

    weights = {}
    for task in model.tasks:
        wmap = class_weights(label_counts(train_set.examples, task))
        weights[task] = np.asarray([wmap.get(cls, 1.0) for cls in model.task_vocabs[task]])

    train_ids, train_mask = model.encode_texts(train_set.examples)

    n = len(train_set)
    steps_per_epoch = int(np.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch

    params = model.trainable_params()
    optimizer = AdamW(params, lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(cfg.seed + 1)

    log = TrainLog()
    best_avg = -1.0   # below any accuracy, so epoch 1 always sets the best
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_losses = []
        for batch_i in range(steps_per_epoch):
            sel = perm[batch_i * cfg.batch_size: (batch_i + 1) * cfg.batch_size]
            width = int(train_mask[sel].sum(axis=1).max())
            ids, mask = train_ids[sel, :width], train_mask[sel, :width]
            logits, pooled, cache = model.forward(ids, mask, training=True, rng=dropout_rng)
            targets = {t: train_targets[t][sel] for t in model.tasks}
            loss, dlogits = weighted_loss_and_grad(logits, targets, weights)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"epoch{epoch}/batch{batch_i}", loss)
            grads: dict[str, np.ndarray] = {}
            d_pooled = np.zeros_like(pooled)
            for task in model.tasks:
                grads[f"head.{task}.W"] = dlogits[task].T @ pooled
                grads[f"head.{task}.b"] = dlogits[task].sum(axis=0)
                d_pooled += dlogits[task] @ model.heads[task]["W"]
            if model.encoder.adapters:
                for name, g in model.encoder.backward_adapters(cache, d_pooled).items():
                    grads[f"adapter.{name}.A"] = g["A"]
                    grads[f"adapter.{name}.B"] = g["B"]
            optimizer.step(grads, lr_scale=lr_schedule(step, total_steps))
            step += 1
            epoch_losses.append(loss)

        # backward has freed the last step's layer activations; drop what is
        # left of its cache before validating (a model without adapters never
        # runs backward, so there it is the whole cache)
        logits = pooled = cache = None
        scores = score_predictions(model, predict(model, val_set.examples), val_targets)
        val_acc = {task: s.accuracy for task, s in scores.items()}
        log.append(epoch, float(np.mean(epoch_losses)), val_acc)
        avg = float(np.mean([val_acc[t] for t in model.tasks]))
        if avg > best_avg:
            best_avg, best_epoch, best_params = avg, epoch, model.snapshot()

    return TrainResult(best_params=best_params, best_epoch=best_epoch, log=log,
                       steps_taken=step)
