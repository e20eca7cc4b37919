from collections import Counter

import pytest

from medcascade.atomic import file_digest
from medcascade.errors import MissingBundle
from medcascade.gateway import Gateway, MockBackend
from medcascade.preprocess import BundleStore, run_bundle
from medcascade.variants import CONDITIONS, build_variant, load_variant, write_variant

from conftest import make_record


@pytest.fixture
def records():
    return [
        make_record(rid="r2", text="عندي حمى شديد من 3 ايام. تعبان جدا.", ctype="acute"),
        make_record(rid="r1", text="عندي سكري خفيف.", severity="mild"),
        make_record(rid="r3", text="كلام بدون اعراض معروفة هنا.", ctype="acute",
                    severity="mild"),
    ]


@pytest.fixture
def store(tmp_path, records):
    store = BundleStore(tmp_path / "bundles")
    gw = Gateway(MockBackend())
    run_bundle(records, gw, store=store)
    return store


class TestBuildVariant:
    def test_normal_is_identity(self, records):
        variant = build_variant(records, None, "normal")
        by_id = {ex.record_id: ex for ex in variant.examples}
        for record in records:
            assert (by_id[record.id].text, by_id[record.id].aux) == (record.text, "")

    def test_ordering_by_record_id(self, records, store):
        variant = build_variant(records, store, "refined")
        assert [ex.record_id for ex in variant.examples] == ["r1", "r2", "r3"]

    def test_ner_construction_rule(self, records, store):
        variant = build_variant(records, store, "ner")
        ex = {e.record_id: e for e in variant.examples}["r2"]
        assert (ex.text, ex.aux) == ("عندي حمى شديد من 3 ايام. تعبان جدا.", "حمى، شديد")

    def test_an_empty_aux_is_counted(self, records, store):
        variant = build_variant(records, store, "ner")
        ex = {e.record_id: e for e in variant.examples}["r3"]
        assert (ex.text, ex.aux) == ("كلام بدون اعراض معروفة هنا.", "")
        assert variant.provenance["empty_aux_count"] == 1

    def test_an_augmented_condition_needs_a_store(self, records):
        with pytest.raises(MissingBundle, match="condition 'ner' needs a bundle store"):
            build_variant(records, None, "ner")

    def test_missing_bundle(self, records, store):
        extra = records + [make_record(rid="r9", text="نص جديد.")]
        with pytest.raises(MissingBundle) as exc:
            build_variant(extra, store, "refined")
        assert "r9" in str(exc.value)

    def test_label_multiset_identical_across_conditions(self, records, store):
        counters = []
        for condition in CONDITIONS:
            variant = build_variant(records, store, condition)
            counters.append(Counter(
                (ex.labels.condition_type, ex.labels.severity) for ex in variant.examples))
        assert all(c == counters[0] for c in counters)

    def test_augmented_text_is_the_normal_text(self, records, store):
        normal = {ex.record_id: ex.text
                  for ex in build_variant(records, store, "normal").examples}
        for condition in ("refined", "summarized", "ner"):
            for ex in build_variant(records, store, condition).examples:
                assert ex.text == normal[ex.record_id]
                assert ex.aux == ex.aux.strip()

    def test_counts_match_corpus_size(self, records, store):
        for condition in CONDITIONS:
            assert len(build_variant(records, store, condition)) == len(records)

    def test_deterministic(self, records, store):
        a = build_variant(records, store, "summarized")
        b = build_variant(records, store, "summarized")
        assert a.examples == b.examples
        assert a.provenance == b.provenance

    def test_unknown_condition(self, records, store):
        with pytest.raises(ValueError):
            build_variant(records, store, "backtranslated")

    def test_scrubs_unscrubbed_input(self, store, records):
        dirty = [make_record(rid="r1", text="عندي سكري خفيف. رقمي 01234567890")]
        gw = Gateway(MockBackend())
        local_store = BundleStore(store.directory + "_dirty")
        run_bundle(dirty, gw, store=local_store)
        variant = build_variant(dirty, local_store, "normal")
        assert "<PHONE>" in variant.examples[0].text
        assert "01234567890" not in variant.examples[0].text


class TestVariantFiles:
    def test_write_load_round_trip(self, tmp_path, records, store):
        variant = build_variant(records, store, "ner")
        write_variant(variant, tmp_path / "variants", "train")
        loaded = load_variant(tmp_path / "variants", "ner", "train")
        assert loaded.examples == variant.examples
        assert loaded.provenance == variant.provenance

    def test_blank_lines_are_skipped(self, tmp_path, records, store):
        variant = build_variant(records, store, "ner")
        path = write_variant(variant, tmp_path / "variants", "train")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join([lines[0], "\n", " \n", *lines[1:]]))
        assert load_variant(tmp_path / "variants", "ner", "train").examples == variant.examples

    def test_provenance_tracks_sources(self, tmp_path, records, store):
        variant = build_variant(records, store, "refined")
        assert variant.provenance["corpus_hash"]
        assert variant.provenance["bundle_store_hash"] == file_digest(store.path)
        normal = build_variant(records, store, "normal")
        assert normal.provenance["bundle_store_hash"] is None
