"""The three LLM preprocessing layers over the deterministic mock backend.

The mock is sent the same prompts as a live model, tells the three layers'
prompts apart by their templates, and applies a fixed transformation, so
everything here is reproducible offline.  Swapping in a
live backend is a config change (gateway.backend = "openai" or "llama" plus
MEDCASCADE_LLM_URL / MEDCASCADE_LLM_KEY).

Run from the repository root:  python demos/02_mock_preprocessing.py
"""

import tempfile

from medcascade.corpus import load_corpus, scrub_records
from medcascade.gateway import Gateway, MockBackend, ResponseCache
from medcascade.preprocess import BundleStore, run_bundle

records, _ = load_corpus("data/synthetic/corpus.jsonl")
records = scrub_records(records)[:5]

workdir = tempfile.mkdtemp(prefix="medcascade_demo_")
gw = Gateway(MockBackend(), cache=ResponseCache(f"{workdir}/cache"))

# ── 1. batch orchestration with a bundle store ───────────────────────────────
store = BundleStore(f"{workdir}/bundles")
bundles = run_bundle(records, gw, store=store)
print(f"{len(bundles)} bundles written to {store.directory}")
print(f"gateway calls so far: {gw.backend_calls}, cache hits: {gw.cache_hits}")

# ── 2. the three layers of one record, read from its bundle ─────────────────
record, bundle = records[0], bundles[0]
print("\nsource:    ", record.text)
print("refined:   ", bundle.refined.replace("\n", " / "))
print("summarized:", bundle.summarized)
print("entities:  ", [(e.surface, e.category) for e in bundle.entities])

# ── 3. a second run is free: the cache short-circuits the backend ────────────
run_bundle(records, gw, store=BundleStore(f"{workdir}/bundles2"))
print(f"\nafter rerun: gateway calls {gw.backend_calls} (unchanged), "
      f"cache hits {gw.cache_hits}")
