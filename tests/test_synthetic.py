import numpy as np

from medcascade.corpus import scrub_pii
from medcascade.gateway import load_symptom_lexicon
from medcascade.synthetic import (SEVERITY_MARKERS, TYPE_MARKERS,
                                  generate_synthetic_corpus)


class TestSyntheticCorpus:
    def test_size_and_validity(self):
        records, manifest = generate_synthetic_corpus()
        assert len(records) == 200
        assert manifest.record_count == 200
        for record in records:
            assert record.labels.condition_type in manifest.vocab["type"]
            assert record.labels.severity in manifest.vocab["severity"]

    def test_deterministic(self):
        a, _ = generate_synthetic_corpus(seed=2024)
        b, _ = generate_synthetic_corpus(seed=2024)
        assert a == b

    def test_planted_markers_present(self):
        records, _ = generate_synthetic_corpus()
        for record in records:
            type_hits = [m for m in TYPE_MARKERS[record.labels.condition_type]
                         if m in record.text.split()]
            sev_hits = [m for m in SEVERITY_MARKERS[record.labels.severity]
                        if m in record.text.split()]
            assert type_hits and sev_hits

    def test_markers_in_mock_lexicon(self):
        lexicon = load_symptom_lexicon()
        for markers in (*TYPE_MARKERS.values(), *SEVERITY_MARKERS.values()):
            for marker in markers:
                assert marker in lexicon

    def test_some_records_carry_pii(self):
        records, _ = generate_synthetic_corpus()
        dirty = [r for r in records if scrub_pii(r.text) != r.text]
        assert 5 <= len(dirty) <= 60

    def test_every_type_class_has_enough_for_splits(self):
        records, manifest = generate_synthetic_corpus()
        counts = {}
        for record in records:
            counts[record.labels.condition_type] = \
                counts.get(record.labels.condition_type, 0) + 1
        assert all(c >= 10 for c in counts.values())

    def test_bundled_file_matches_generator(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic",
                            "corpus.jsonl")
        if not os.path.exists(path):
            import pytest
            pytest.skip("bundled corpus not present")
        import json
        records, _ = generate_synthetic_corpus()
        with open(path, encoding="utf-8") as fh:
            on_disk = [json.loads(line) for line in fh if line.strip()]
        assert on_disk == [r.to_json() for r in records]

    def test_linearly_separable_bag_of_words(self):
        # logistic-regression oracle: the planted signal must be learnable
        # by any reasonable model before we ask the trainer to learn it
        from medcascade.tokenizers import HashWordTokenizer
        records, manifest = generate_synthetic_corpus()
        tok = HashWordTokenizer(512)
        X = np.zeros((len(records), 512))
        for i, record in enumerate(records):
            for t in tok.encode(record.text):
                X[i, t] += 1.0
        y = np.array([manifest.vocab["type"].index(r.labels.condition_type)
                      for r in records])
        k = 3
        W = np.zeros((k, 512))
        b = np.zeros(k)
        for _ in range(300):
            z = X @ W.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = p
            g[np.arange(len(y)), y] -= 1
            g /= len(y)
            W -= 0.5 * (g.T @ X)
            b -= 0.5 * g.sum(axis=0)
        acc = float(np.mean(np.argmax(X @ W.T + b, axis=1) == y))
        assert acc >= 0.99
