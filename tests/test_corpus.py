import codecs
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from medcascade.corpus import (load_corpus, scrub_pii, stratified_split, write_corpus,
                               corpus_hash, label_counts, scrub_records)
from medcascade.errors import (ClassTooSmall, CorruptArtifact, DuplicateId, MalformedRecord,
                               UnknownLabel)

from conftest import make_record, manifest_obj


class TestLoadCorpus:
    def test_three_valid_records(self, corpus_files):
        corpus, _ = corpus_files
        records, manifest = load_corpus(corpus)
        assert len(records) == 3
        assert manifest.record_count == 3
        assert [r.id for r in records] == ["p1", "p2", "p3"]  # order preserved
        assert records[0].labels.condition_type == "acute"
        assert records[2].gender == "unspecified"

    def test_blank_lines_are_skipped(self, corpus_files):
        corpus, _ = corpus_files
        lines = Path(corpus).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(corpus).write_text(lines[0] + "\n   \n" + "".join(lines[1:]), encoding="utf-8")
        records, manifest = load_corpus(corpus)
        assert [r.id for r in records] == ["p1", "p2", "p3"]
        assert manifest.record_count == 3

    def test_unknown_label_rejected(self, tmp_path, corpus_files):
        corpus, _ = corpus_files
        bad = {"id": "p9", "text": "x", "age": None, "gender": None,
               "labels": {"diagnosis": None, "type": "acute", "severity": "extreme"}}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(UnknownLabel) as exc:
            load_corpus(corpus)
        assert "p9" in str(exc.value)
        assert "extreme" in str(exc.value)

    def test_duplicate_id(self, corpus_files):
        corpus, _ = corpus_files
        line = corpus.read_text(encoding="utf-8").splitlines()[0]
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(DuplicateId):
            load_corpus(corpus)

    def test_malformed_record_names_line_and_field(self, corpus_files):
        corpus, _ = corpus_files
        bad = {"id": "p9", "text": "x", "age": 999, "gender": None,
               "labels": {"diagnosis": None, "type": "acute", "severity": "mild"}}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(corpus)
        assert exc.value.line_no == 4
        assert exc.value.field == "age"

    @pytest.mark.parametrize("line, field", [
        ('{"id": "p9", "text": "x", "labels": ["acute", "mild"]}', "labels"),
        ('{"id": "p9", "text": "x", "labels": {"severity": "mild"}}', "labels.type"),
        ('{"id": "p9", "text": "x", "labels": {"type": "acute"}}', "labels.severity"),
        ('{"id": "p9", "text": "x", "gender": "other", '
         '"labels": {"type": "acute", "severity": "mild"}}', "gender"),
        ('{"id": "p9", "text": "x", "labels"', "json"),
    ], ids=["labels-not-object", "no-type", "no-severity", "unknown-gender", "not-json"])
    def test_bad_line_names_its_line_and_field(self, corpus_files, line, field):
        corpus, _ = corpus_files
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(corpus)
        assert (exc.value.line_no, exc.value.field) == (4, field)

    def test_type_outside_the_vocabulary_rejected(self, corpus_files):
        corpus, _ = corpus_files
        bad = {"id": "p9", "text": "x", "labels": {"type": "viral", "severity": "mild"}}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(UnknownLabel, match="viral"):
            load_corpus(corpus)

    @pytest.mark.parametrize("vocab, field", [
        ({"type": ["chronic", "acute"], "severity": "mild"}, "vocab.severity"),
        ({"type": ["chronic", "acute"], "severity": ["mild", 2]}, "vocab.severity"),
        ([["chronic", "acute"], ["mild", "severe"]], "vocab"),
        ({"type": ["chronic", "acute"]}, "vocab.severity"),
        ({"type": ["chronic", "acute", "chronic"], "severity": ["mild", "severe"]},
         "vocab.type"),
    ], ids=["string", "non-string-entry", "vocab-not-object", "no-severity", "repeated-entry"])
    def test_manifest_vocab_of_a_wrong_shape_is_malformed(self, corpus_files, vocab, field):
        # a string would pass as its characters: "mild" has 4 distinct ones
        corpus, manifest = corpus_files
        manifest.write_text(json.dumps({"schema_version": 1, "vocab": vocab}), encoding="utf-8")
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(corpus)
        assert exc.value.field == field

    def test_empty_text_rejected(self, corpus_files):
        corpus, _ = corpus_files
        bad = {"id": "p9", "text": "   ", "age": None, "gender": None,
               "labels": {"diagnosis": None, "type": "acute", "severity": "mild"}}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(MalformedRecord):
            load_corpus(corpus)

    @pytest.mark.parametrize("damage", [b'{"schema_version": 1, "voc', b"[]", b"\xff\xfe"],
                             ids=["truncated", "not-object", "not-utf8"])
    def test_unreadable_manifest_names_the_file(self, corpus_files, damage):
        corpus, manifest = corpus_files
        manifest.write_bytes(damage)
        with pytest.raises(CorruptArtifact, match=re.escape(str(manifest))):
            load_corpus(corpus)

    def test_corpus_cut_inside_a_character_names_the_file(self, corpus_files):
        corpus, _ = corpus_files
        raw = corpus.read_bytes()
        cut = raw.index("حمى".encode("utf-8")) + 1  # inside the two-byte ح
        corpus.write_bytes(raw[:cut])
        with pytest.raises(CorruptArtifact, match=re.escape(str(corpus))):
            load_corpus(corpus)

    def test_csv_import(self, tmp_path):
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(
            "id,text,age,gender,diagnosis,type,severity\n"
            "c1,fever and cough,25,male,,acute,mild\n"
            "c2,chronic fatigue,,,,chronic,severe\n", encoding="utf-8")
        (tmp_path / "c.manifest.json").write_text(json.dumps(
            {"schema_version": 1, "vocab": {"type": ["chronic", "acute"],
                                            "severity": ["mild", "severe"]}}))
        records, manifest = load_corpus(csv_path)   # read as CSV by its suffix
        assert len(records) == 2
        assert records[0].age == 25
        assert records[1].age is None

    def test_a_jsonl_corpus_with_a_utf8_bom_loads(self, corpus_files):
        corpus, _ = corpus_files
        clean = load_corpus(corpus)[0]
        corpus.write_bytes(codecs.BOM_UTF8 + corpus.read_bytes())
        assert load_corpus(corpus)[0] == clean

    def test_a_csv_corpus_with_a_utf8_bom_loads(self, tmp_path):
        # Excel's "CSV UTF-8" export begins the file with one
        csv_path = tmp_path / "c.csv"
        csv_path.write_bytes(codecs.BOM_UTF8 + "id,text,age,gender,type,severity\n"
                             "c1,حمى وسعال,25,male,acute,mild\n".encode("utf-8"))
        (tmp_path / "c.manifest.json").write_text(json.dumps(
            {"schema_version": 1, "vocab": {"type": ["chronic", "acute"],
                                            "severity": ["mild", "severe"]}}))
        [record], _ = load_corpus(csv_path)
        assert (record.id, record.text, record.age) == ("c1", "حمى وسعال", 25)

    def test_csv_age_that_is_not_a_number_names_its_line(self, tmp_path):
        csv_path = tmp_path / "c.csv"
        csv_path.write_text("id,text,age,gender,type,severity\n"
                            "c1,fever,25,male,acute,mild\n"
                            "c2,fatigue,abc,,chronic,severe\n", encoding="utf-8")
        (tmp_path / "c.manifest.json").write_text(json.dumps(
            {"schema_version": 1, "vocab": {"type": ["chronic", "acute"],
                                            "severity": ["mild", "severe"]}}))
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(csv_path)
        assert (exc.value.line_no, exc.value.field) == (3, "age")

    def test_round_trip(self, corpus_files, tmp_path):
        corpus, _ = corpus_files
        records, manifest = load_corpus(corpus)
        out = tmp_path / "copy.jsonl"
        write_corpus(out, records, manifest)
        records2, manifest2 = load_corpus(out)
        assert records2 == records
        assert manifest2.vocab == manifest.vocab
        assert corpus_hash(records2) == corpus_hash(records)


# 30-string fixture set, verified by eye before the build and frozen here.
PII_CASES = [
    ("call me 01234567890", "call me <PHONE>"),
    ("رقمي 01012345678 للتواصل", "رقمي <PHONE> للتواصل"),
    ("+201234567890", "<PHONE>"),
    ("tel:12345678.", "tel:<PHONE>."),
    ("numbers 0123456789012 end", "numbers <PHONE> end"),
    ("٠١٢٣٤٥٦٧٨٩٠ عربي", "<PHONE> عربي"),
    ("grouped 0123 456 7890 yes", "grouped <PHONE> yes"),
    ("dashes 010-1234-5678 ok", "dashes <PHONE> ok"),
    ("هوية 29801011234567 سرية", "هوية <ID> سرية"),
    ("big 123456789012345678", "big <ID>"),
    ("a@b.com a@b.com", "<EMAIL> <EMAIL>"),
    ("mail: dr.house+x@clinic.example.org!", "mail: <EMAIL>!"),
    ("Contact nurse_7@hospital.eg now", "Contact <EMAIL> now"),
    ("see https://forum.example.com/post?id=33 please", "see <URL> please"),
    ("link www.tebfacts.example/abc.", "link <URL>"),
    ("http://a.b/c?q=1&r=2", "<URL>"),
    ("عمري 65 سنة", "عمري 65 سنة"),
    ("fever for 3 days, 2 pills of 500 mg", "fever for 3 days, 2 pills of 500 mg"),
    ("blood pressure 120/80 since 1999", "blood pressure 120/80 since 1999"),
    ("سكر صايم 110 وضغط 140", "سكر صايم 110 وضغط 140"),
    ("Concor 5 mg twice", "Concor 5 mg twice"),
    ("temperature 38.5 for 7 days", "temperature 38.5 for 7 days"),
    ("7-digit 1234567 stays", "7-digit 1234567 stays"),
    ("reach me at a@b.com or 01234567890", "reach me at <EMAIL> or <PHONE>"),
    ("twice 01111111111 and 01222222222", "twice <PHONE> and <PHONE>"),
    ("<PHONE> already scrubbed", "<PHONE> already scrubbed"),
    ("email inside url https://x.example/a@b.com page", "email inside url <URL> page"),
    ("عندي الم من ٥ ايام", "عندي الم من ٥ ايام"),
    ("id 1234567890123 vs 12345678901234", "id <PHONE> vs <ID>"),
    ("no pii at all", "no pii at all"),
]


class TestScrubPii:
    @pytest.mark.parametrize("text,expected", PII_CASES)
    def test_fixture_set(self, text, expected):
        assert scrub_pii(text) == expected

    @pytest.mark.parametrize("text,expected", PII_CASES)
    def test_idempotent_on_fixtures(self, text, expected):
        assert scrub_pii(expected) == expected

    def test_no_pii_unchanged(self):
        text = "عندي صداع مستمر من اسبوع والم في المعدة"
        assert scrub_pii(text) == text

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_length_bounded(self, text):
        once = scrub_pii(text)
        assert scrub_pii(once) == once
        # each replacement can add at most the placeholder length
        assert len(once) <= len(text) + 7 * (once.count("<"))


class TestStratifiedSplit:
    def _records(self, n, ctype="chronic", start=0):
        return [make_record(rid=f"r{start + i}", ctype=ctype) for i in range(n)]

    def test_sizes_single_class(self):
        records = self._records(10)
        train, val, test = stratified_split(records, (0.8, 0.1, 0.1), seed=7)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_deterministic_in_seed(self):
        records = self._records(10) + self._records(6, "acute", start=10)
        a = stratified_split(records, (0.8, 0.1, 0.1), seed=7)
        b = stratified_split(records, (0.8, 0.1, 0.1), seed=7)
        assert a == b
        c = stratified_split(records, (0.8, 0.1, 0.1), seed=8)
        assert a != c

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.8, 0.2, 0.0), (0.8, 0.1, 0.2)],
                             ids=["two-parts", "empty-part", "sum-over-1"])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="three positive fractions summing to 1"):
            stratified_split(self._records(10), ratios, seed=7)

    def test_class_too_small(self):
        records = self._records(10) + self._records(2, "acute", start=10)
        with pytest.raises(ClassTooSmall) as exc:
            stratified_split(records, (0.8, 0.1, 0.1), seed=7)
        assert "acute" in str(exc.value)

    @given(st.integers(min_value=3, max_value=40), st.integers(min_value=3, max_value=40),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n_chronic, n_acute, seed):
        records = self._records(n_chronic) + self._records(n_acute, "acute", start=n_chronic)
        train, val, test = stratified_split(records, (0.7, 0.15, 0.15), seed=seed)
        ids = [r.id for r in train + val + test]
        assert sorted(ids) == sorted(r.id for r in records)
        assert len(set(ids)) == len(records)
        # every split holds at least one record of each class
        for part in (train, val, test):
            classes = {r.labels.condition_type for r in part}
            assert classes == {"chronic", "acute"}

    def test_proportions_within_one_record(self):
        records = self._records(40) + self._records(20, "acute", start=40)
        ratios = (0.5, 0.25, 0.25)
        train, val, test = stratified_split(records, ratios, seed=3)
        for cls, total in (("chronic", 40), ("acute", 20)):
            for part, ratio in zip((train, val, test), ratios):
                got = sum(1 for r in part if r.labels.condition_type == cls)
                assert abs(got - total * ratio) <= 1


class TestHelpers:
    def test_scrub_records_replaces_text_only(self):
        rec = make_record(text="اتصل بيا 01234567890")
        (scrubbed,) = scrub_records([rec])
        assert scrubbed.text == "اتصل بيا <PHONE>"
        assert scrubbed.id == rec.id
        assert scrubbed.labels == rec.labels

    def test_label_counts(self):
        records = [make_record(rid="a"), make_record(rid="b", ctype="acute"),
                   make_record(rid="c")]
        assert label_counts(records, "type") == {"chronic": 2, "acute": 1}

    def test_manifest_requires_two_entries(self):
        manifest = manifest_obj()
        manifest.vocab["severity"] = ["only"]
        with pytest.raises(MalformedRecord):
            manifest.validate()


def test_readme_corpus_format_names_the_record_and_label_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = re.search(r"\*\*Corpus\*\*: JSONL `(\{.*?\}\})`", readme, re.S).group(1)
    labels = re.search(r'"labels": \{(.*?)\}', line, re.S).group(1)
    written = make_record().to_json()
    assert re.findall(r'"(\w+)"', line.replace(labels, "")) == list(written)
    assert re.findall(r'"(\w+)"', labels) == list(written["labels"])
