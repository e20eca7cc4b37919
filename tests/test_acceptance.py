"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a ``[acceptance] <name>:
PASS/FAIL`` line is printed per criterion (hook in conftest).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from medcascade.cli import main as cli_main
from medcascade.corpus import scrub_pii, scrub_records, stratified_split
from medcascade.encoder import build_toy_encoder
from medcascade.evaluator import _rates, avg_percent, confusion_matrix
from medcascade.gateway import Gateway, MockBackend
from medcascade.lora import adapted_forward, count_trainable, init_adapter, merge
from medcascade.preprocess import BundleStore, run_bundle
from medcascade.synthetic import generate_synthetic_corpus
from medcascade.trainer import (MultiTaskModel, TrainConfig, predict, train,
                                weighted_loss, weighted_loss_and_grad)
from medcascade.variants import CONDITIONS, build_variant

BUNDLED_CORPUS = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic",
                              "corpus.jsonl")


def test_criterion_1_lora_merge_equivalence():
    """100 random adapters (r in {1,4,16}, dims <= 128): adapted vs merged
    forward agree to 1e-5 elementwise, in under 10 seconds."""
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        r = int(rng.choice([1, 4, 16]))
        d_in = int(rng.integers(r, 129))
        d_out = int(rng.integers(r, 129))
        adapter = init_adapter(d_in, d_out, r=r, alpha=float(rng.uniform(0.5, 16.0)),
                               seed=2000 + i)
        adapter.B[:] = rng.normal(size=adapter.B.shape)
        w = rng.normal(size=(d_out, d_in))
        x = rng.normal(size=(7, d_in))
        merged_out = x @ merge(adapter, w).T
        adapted_out = adapted_forward(adapter, x @ w.T, x, training=False)
        worst = max(worst, float(np.max(np.abs(merged_out - adapted_out))))
    elapsed = time.monotonic() - started
    assert worst <= 1e-5, f"max elementwise difference {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_zero_init_neutrality():
    """Freshly initialized adapters leave toy-encoder outputs bitwise
    unchanged for 50 random inputs."""
    enc = build_toy_encoder(seed=77)
    rng = np.random.default_rng(1002)
    inputs = []
    for _ in range(50):
        length = int(rng.integers(3, enc.max_len))
        ids = rng.integers(0, enc.config.vocab_size, size=(1, length))
        mask = np.ones((1, length))
        inputs.append((ids, mask))
    before = [enc.forward(ids, mask).tobytes() for ids, mask in inputs]
    enc.attach_adapters(enc.build_adapters(rank=16, alpha=8.0, dropout_rate=0.05, seed=78))
    after = [enc.forward(ids, mask).tobytes() for ids, mask in inputs]
    assert before == after


def _gradcheck_model():
    enc = build_toy_encoder(seed=301, d_model=16, n_layers=2, n_heads=2, d_ff=24,
                            vocab_size=64, max_len=12)
    adapters = enc.build_adapters(rank=2, alpha=4.0, dropout_rate=0.0, seed=302)
    rng = np.random.default_rng(303)
    for adapter in adapters.values():
        adapter.A[:] = rng.normal(0, 0.5, adapter.A.shape)
        adapter.B[:] = rng.normal(0, 0.5, adapter.B.shape)
    enc.attach_adapters(adapters)
    model = MultiTaskModel.build(
        enc, {"type": ["a", "b", "c"], "severity": ["x", "y"]}, head_seed=304)
    ids = rng.integers(0, 64, size=(4, 9))
    mask = np.ones((4, 9))
    mask[1, 6:] = 0
    targets = {"type": rng.integers(0, 3, size=4), "severity": rng.integers(0, 2, size=4)}
    weights = {"type": np.array([0.5, 2.0, 1.0]), "severity": np.array([1.4, 0.8])}
    return model, ids, mask, targets, weights


def test_criterion_3_gradient_check():
    """Analytic gradients of weighted_loss w.r.t. head and adapter parameters
    match central finite differences (step 1e-3) with relative error <= 1e-4
    on >= 20 random coordinates; plain-weights loss equals mean CE to 1e-7."""
    model, ids, mask, targets, weights = _gradcheck_model()

    def loss_value():
        logits, _, _ = model.forward(ids, mask, training=True, rng=None)
        return weighted_loss(logits, targets, weights)

    logits, pooled, cache = model.forward(ids, mask, training=True, rng=None)
    _, dlogits = weighted_loss_and_grad(logits, targets, weights)
    analytic: dict[str, np.ndarray] = {}
    d_pooled = np.zeros_like(pooled)
    for task in model.tasks:
        analytic[f"head.{task}.W"] = dlogits[task].T @ pooled
        analytic[f"head.{task}.b"] = dlogits[task].sum(axis=0)
        d_pooled += dlogits[task] @ model.heads[task]["W"]
    for name, g in model.encoder.backward_adapters(cache, d_pooled).items():
        analytic[f"adapter.{name}.A"] = g["A"]
        analytic[f"adapter.{name}.B"] = g["B"]

    params = model.trainable_params()
    rng = np.random.default_rng(305)
    h = 1e-3
    checked = 0
    names = sorted(params)
    while checked < 24:
        name = names[int(rng.integers(len(names)))]
        arr = params[name]
        flat_index = int(rng.integers(arr.size))
        an = analytic[name].reshape(-1)[flat_index]
        if abs(an) < 1e-4:
            continue  # relative error is meaningless at zero gradient
        orig = arr.reshape(-1)[flat_index]
        arr.reshape(-1)[flat_index] = orig + h
        up = loss_value()
        arr.reshape(-1)[flat_index] = orig - h
        down = loss_value()
        arr.reshape(-1)[flat_index] = orig
        fd = (up - down) / (2 * h)
        rel = abs(fd - an) / max(abs(fd), abs(an))
        assert rel <= 1e-4, f"{name}[{flat_index}]: fd={fd} analytic={an} rel={rel}"
        checked += 1
    assert checked >= 20

    # plain-weights loss == mean cross-entropy
    plain = weighted_loss(logits, targets, None)
    mean_ce = 0.0
    for task in model.tasks:
        rows = logits[task]
        ces = [math.log(float(np.exp(row).sum())) - float(row[t])
               for row, t in zip(rows, targets[task])]
        mean_ce += sum(ces) / len(ces)
    assert abs(plain - mean_ce) <= 1e-7


def test_criterion_4_balanced_accuracy_oracle():
    """On 1000 random (preds, golds) pairs (n <= 50, K <= 6), the balanced
    accuracy ``score_predictions`` takes off the confusion matrix equals the
    brute-force per-class-recall average exactly, and its accuracy equals
    match-count / n."""
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 51))
        golds = [int(g) for g in rng.integers(0, k, size=n)]
        preds = [int(p) for p in rng.integers(0, k, size=n)]
        recalls = []
        for cls in range(k):
            gold_count = sum(1 for g in golds if g == cls)
            if gold_count == 0:
                continue
            correct = sum(1 for p, g in zip(preds, golds) if g == cls and p == cls)
            recalls.append(correct / gold_count)
        brute_force = sum(recalls) / len(recalls)
        acc, balanced = _rates(confusion_matrix(preds, golds, k))
        assert balanced == brute_force
        matches = sum(1 for p, g in zip(preds, golds) if p == g)
        assert acc == matches / n


def _toy_cell(epochs, seed=501, lr=2e-3, condition="normal", n_records=200):
    records, manifest = generate_synthetic_corpus(n=n_records)
    records = scrub_records(records)
    train_recs, val_recs, test_recs = stratified_split(records, (0.8, 0.1, 0.1), seed=7)
    store = None
    if condition != "normal":
        gw = Gateway(MockBackend())
        store = BundleStore(os.path.join(os.environ.get("TMPDIR", "/tmp"),
                                         f"acc_bundles_{os.getpid()}"))
        run_bundle(records, gw, store=store)
    train_v = build_variant(train_recs, store, condition)
    val_v = build_variant(val_recs, store, condition)
    test_v = build_variant(test_recs, store, condition)
    enc = build_toy_encoder(seed=seed)
    enc.attach_adapters(enc.build_adapters(rank=16, alpha=8.0, dropout_rate=0.05,
                                           seed=seed + 1))
    model = MultiTaskModel.build(enc, manifest.vocab, head_seed=seed + 2)
    cfg = TrainConfig(batch_size=4, epochs=epochs, learning_rate=lr, seed=5)
    return model, train_v, val_v, test_v, cfg


def test_criterion_5_freeze_contract():
    """After a 2-epoch toy run, base-encoder bytes are unchanged and
    count_trainable equals the number of parameters that changed."""
    model, train_v, val_v, _, cfg = _toy_cell(epochs=2)
    cfg.epochs = 2
    base_before = model.encoder.base_state_bytes()
    snapshot = {k: v.copy() for k, v in model.trainable_params().items()}
    train(model, train_v, val_v, cfg)
    assert model.encoder.base_state_bytes() == base_before

    changed = sum(v.size for k, v in model.trainable_params().items()
                  if not np.array_equal(v, snapshot[k]))
    head_dims = [(model.encoder.d_model, len(model.task_vocabs[t])) for t in model.tasks]
    assert changed == count_trainable(model.encoder.adapters, head_dims)


def test_criterion_6_learnability():
    """Bundled 200-example synthetic corpus, 25 epochs at batch 4: train loss
    falls by >= 50% from epoch 1 and held-out Type accuracy beats the
    majority-class baseline. Under 5 minutes of CPU."""
    started = time.monotonic()
    model, train_v, val_v, test_v, cfg = _toy_cell(epochs=25)
    result = train(model, train_v, val_v, cfg)
    first = result.log.rows[0]["train_loss"]
    last = result.log.rows[-1]["train_loss"]
    assert last <= 0.5 * first, f"loss only moved {first} -> {last}"

    model.restore(result.best_params)
    golds = np.array([model.label_index("type", ex.labels.get("type"))
                      for ex in test_v.examples])
    preds = predict(model, test_v.examples)["type"]["indices"]
    acc = float(np.mean(preds == golds))
    majority = float(np.max(np.bincount(golds)) / len(golds))
    assert acc > majority, f"accuracy {acc} vs majority baseline {majority}"
    assert time.monotonic() - started < 300.0


def _run_pipeline(workdir: str, corpus: str) -> None:
    config = {
        "corpus": corpus,
        "workdir": workdir,
        "train": {"epochs": 3, "learning_rate": 2e-3},
    }
    cfg_path = os.path.join(workdir, "cfg.json")
    os.makedirs(workdir, exist_ok=True)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    for argv in (["ingest"], ["preprocess", "--backend", "mock"], ["variants"],
                 ["train", "--model", "toy", "--condition", "ner"],
                 ["train", "--model", "toy", "--condition", "normal"],
                 ["report"]):
        assert cli_main(argv + ["--config", cfg_path]) == 0, f"{argv} failed"


def _tree_bytes(root: str, keep) -> dict[str, bytes]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            if keep(rel):
                with open(path, "rb") as fh:
                    out[rel] = fh.read()
    return out


def test_criterion_7_pipeline_determinism(tmp_path):
    """Two full mock-backend runs (ingest -> report) from the same seed produce
    byte-identical bundle logs, variant files, TrainLogs, and reports."""
    corpus = os.path.abspath(BUNDLED_CORPUS)
    trees = []
    for name in ("run_a", "run_b"):
        workdir = str(tmp_path / name)
        _run_pipeline(workdir, corpus)

        def keep(rel):
            return (rel.startswith("variants" + os.sep) and rel.endswith((".jsonl", ".json"))
                    and not rel.endswith(".state.json")) \
                or rel.endswith("trainlog.csv") \
                or rel.replace(os.sep, "/") in ("reports/report.json", "reports/report.md",
                                                "bundles/bundles.jsonl")
        trees.append(_tree_bytes(workdir, keep))
    assert set(trees[0]) == set(trees[1])
    assert os.path.join("bundles", "bundles.jsonl") in trees[0]
    assert any(k.endswith("trainlog.csv") for k in trees[0])
    assert "reports/report.json".replace("/", os.sep) in trees[0]
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], f"{rel} differs between runs"


# every AVG cell of the published three-condition grid, FT and W/O arms
PUBLISHED_AVG_CELLS = [
    (79, 63, 71), (81, 61, 71), (83, 69, 76), (79, 64, 72),           # headline four
    (73, 65, 69), (65, 65, 65), (76, 66, 71), (62, 57, 60),
    (17, 43, 30), (13, 40, 27), (15, 45, 30), (19, 40, 30), (16, 39, 28), (13, 49, 31),
    (75, 66, 71), (62, 64, 63), (20, 40, 30), (15, 40, 28), (15, 42, 29),
    (75, 64, 70), (63, 61, 62), (16, 40, 28), (14, 46, 30),
]


def test_criterion_8_reporting_fixtures():
    """render_report's AVG arithmetic reproduces every published AVG cell from
    its stored (Type, Severity) pair under whole-percent half-up rounding."""
    for type_pct, severity_pct, expected in PUBLISHED_AVG_CELLS:
        got = avg_percent(type_pct / 100.0, severity_pct / 100.0)
        assert got == expected, f"({type_pct}, {severity_pct}) -> {got}, want {expected}"


def test_criterion_9_variant_construction(tmp_path):
    """Label multisets identical across all four conditions; every example's
    text is the scrubbed source, and a normal example has no aux text."""
    records, _ = generate_synthetic_corpus()
    records = scrub_records(records)
    gw = Gateway(MockBackend())
    store = BundleStore(tmp_path / "bundles")
    run_bundle(records, gw, store=store)

    variants = {c: build_variant(records, store, c) for c in CONDITIONS}
    label_multisets = {
        c: sorted((ex.labels.condition_type, ex.labels.severity) for ex in v.examples)
        for c, v in variants.items()}
    assert all(m == label_multisets["normal"] for m in label_multisets.values())

    source = {r.id: scrub_pii(r.text) for r in records}
    for ex in variants["normal"].examples:
        assert (ex.text, ex.aux) == (source[ex.record_id], "")
    for condition in ("refined", "summarized", "ner"):
        for ex in variants[condition].examples:
            assert ex.text == source[ex.record_id]


def test_criterion_10_epoch_step_accounting():
    """Optimizer step count equals epochs * ceil(N / batch) for five (N, batch)
    combinations, including N not divisible by batch."""
    from test_trainer import signal_variant, tiny_model

    for n, batch in ((10, 4), (8, 4), (7, 2), (5, 5), (9, 8)):
        model = tiny_model(seed=n)
        cfg = TrainConfig(batch_size=batch, epochs=3, learning_rate=1e-3, seed=1)
        result = train(model, signal_variant(n), signal_variant(4, seed=9), cfg)
        expected = 3 * math.ceil(n / batch)
        assert result.steps_taken == expected, \
            f"N={n} batch={batch}: {result.steps_taken} steps, expected {expected}"
