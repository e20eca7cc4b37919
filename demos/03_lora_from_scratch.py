"""Low-rank adapters from scratch: init, forward contribution, merging.

Run from the repository root:  python demos/03_lora_from_scratch.py
"""

import numpy as np

from medcascade.encoder import build_toy_encoder
from medcascade.lora import adapted_forward, count_trainable, init_adapter, merge

# ── 1. an adapter is two low-rank factors around a frozen matrix ─────────────
adapter = init_adapter(d_in=64, d_out=64, r=16, alpha=8.0, dropout_rate=0.05, seed=0)
print(f"A: {adapter.A.shape}, B: {adapter.B.shape}, scale alpha/r = {adapter.scaling}")
print("B starts all-zero:", bool(np.all(adapter.B == 0)))

# zero B means the adapted layer equals the base layer exactly
w = np.random.default_rng(1).normal(size=(64, 64))
x = np.random.default_rng(2).normal(size=64)
assert np.array_equal(adapted_forward(adapter, w @ x, x), w @ x)
print("fresh adapter is a no-op: output identical to base")

# ── 2. after training, the update folds into the base weight ─────────────────
adapter.B[:] = np.random.default_rng(3).normal(0, 0.2, adapter.B.shape)  # "trained"
merged = merge(adapter, w)
adapted = adapted_forward(adapter, w @ x, x)
print("merge equivalence, max |difference|:",
      float(np.max(np.abs(merged @ x - adapted))))

# ── 3. injecting adapters into the encoder's attention projections ───────────
enc = build_toy_encoder(seed=11)
adapters = enc.build_adapters(rank=16, alpha=8.0, dropout_rate=0.05, seed=12)
print("\nadapter targets:", list(adapters))
enc.attach_adapters(adapters)

head_dims = [(enc.d_model, 3), (enc.d_model, 2)]  # type + severity heads
total = count_trainable(adapters, head_dims)
base = sum(p.size for p in enc.params.values())
print(f"trainable parameters: {total} ({100 * total / base:.1f}% of the "
      f"{base}-parameter frozen base)")
