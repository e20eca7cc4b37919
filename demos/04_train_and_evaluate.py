"""Fine-tune the toy encoder on the NER-augmented condition and evaluate.

Takes ~20 seconds on a laptop CPU.  The same code drives the full-size
Arabic encoders from a downloaded Hugging Face snapshot
(NumpyTransformerEncoder.from_pretrained_dir); only the encoder construction
line changes.

Run from the repository root:  python demos/04_train_and_evaluate.py
"""

import tempfile

from medcascade.corpus import load_corpus, scrub_records, stratified_split
from medcascade.encoder import build_toy_encoder
from medcascade.evaluator import evaluate
from medcascade.gateway import Gateway, MockBackend
from medcascade.preprocess import BundleStore, run_bundle
from medcascade.trainer import MultiTaskModel, TrainConfig, train
from medcascade.variants import build_variant

# ── 1. corpus -> splits -> mock bundles -> ner variants ──────────────────────
records, manifest = load_corpus("data/synthetic/corpus.jsonl")
records = scrub_records(records)
train_recs, val_recs, test_recs = stratified_split(records, (0.8, 0.1, 0.1), seed=7)

gw = Gateway(MockBackend())
store = BundleStore(tempfile.mkdtemp(prefix="medcascade_demo_") + "/bundles")
run_bundle(records, gw, store=store)

condition = "ner"
train_v = build_variant(train_recs, store, condition)
val_v = build_variant(val_recs, store, condition)
test_v = build_variant(test_recs, store, condition)
print(f"condition={condition}: {len(train_v)}/{len(val_v)}/{len(test_v)} examples")
print("text:", train_v.examples[0].text[:100], "...")
print("aux: ", train_v.examples[0].aux[:100])

# ── 2. frozen encoder + adapters + heads, 25 epochs at batch 4 ───────────────
encoder = build_toy_encoder(seed=11)
encoder.attach_adapters(
    encoder.build_adapters(rank=16, alpha=8.0, dropout_rate=0.05, seed=12))
model = MultiTaskModel.build(encoder, manifest.vocab, head_seed=13)
print(f"\ntrainable parameters: {model.trainable_count()}")

cfg = TrainConfig(batch_size=4, epochs=25, learning_rate=2e-3, seed=5)
result = train(model, train_v, val_v, cfg)   # class-weighted cross-entropy
for row in result.log.rows[::6]:
    accs = " ".join(f"{t}={row['val_acc'][t]:.2f}" for t in model.tasks)
    print(f"  epoch {row['epoch']:>2}  loss {row['train_loss']:.3f}  val {accs}")
print(f"best epoch by validation average: {result.best_epoch}")

# ── 3. evaluate the best checkpoint on the held-out split ────────────────────
model.restore(result.best_params)
scores, _ = evaluate(model, test_v)
for task, s in sorted(scores.items()):
    print(f"test {task:<9} accuracy={s.accuracy:.3f} "
          f"balanced_accuracy={s.balanced_accuracy:.3f} (n={s.n})")
