import json
import re

import pytest

from medcascade.errors import EmptySourceText, ParseFailure, RefusalDetected, UserError
from medcascade.gateway import (Gateway, MockBackend, ResponseCache, RetryPolicy,
                                TransientBackendError)
from medcascade.preprocess import (BundleStore, Entity, PreprocessBundle,
                                   extract_entities, parse_entities, refine, render,
                                   run_bundle, summarize, template_hashes)
from medcascade.variants import build_variant

from conftest import make_record

# The worked example this pipeline is shaped around: a 65-year-old with
# diabetes/hypertension complaining about irregular bowel movements.
SOURCE_COMPLAINT = ("لو سمحت يا دكتور والدتي عندها 65 سنة مريضة سكر وضغط بتاخد علاج "
                    "السكر كونكور 5 تعاني من عدم انتظام في عملية الإخراج مرة إسهال "
                    "ومرة أخرى إمساك ودلوقتي حاسة أن بطنها منتفخة وميل للقيء. "
                    "إيه السبب؟ وإيه الدواء المناسب لها؟")


class ScriptedBackend:
    """Returns queued responses in order; repeats the last one when drained."""

    backend_id = "scripted"
    prompt_style = "instruct"
    scope = None

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]


class NerRefusingBackend(MockBackend):
    """The mock, except that it refuses every NER prompt and raises
    RuntimeError on a prompt that contains ``crash_on``."""

    def __init__(self, crash_on=None):
        super().__init__()
        self.crash_on = crash_on

    def complete(self, prompt):
        if self.crash_on and self.crash_on in prompt:
            raise RuntimeError("crash")
        if prompt.startswith("NER:"):
            return "I cannot help with that."
        return super().complete(prompt)


def _ledger(tmp_path):
    """(record id, stage) of each failure ledger entry, in file order."""
    lines = (tmp_path / "bundles" / "failures.jsonl").read_text().splitlines()
    return [(e["record_id"], e["stage"]) for e in map(json.loads, lines)]


def scripted_gateway(responses):
    return Gateway(ScriptedBackend(responses))


class TestRefine:
    def test_mock_whitespace_normalization(self, mock_gateway):
        rec = make_record(text="text  with   spaces")
        assert refine(rec, mock_gateway) == "text with spaces"

    def test_worked_example_header_structure(self, mock_gateway):
        rec = make_record(text=SOURCE_COMPLAINT)
        out = refine(rec, mock_gateway)
        # age extracted into a header, medical content preserved below it
        assert out.startswith("Age: 65\n")
        for term in ("إسهال", "إمساك", "منتفخة"):
            assert term in out

    def test_empty_after_scrub_never_sent(self, mock_gateway):
        rec = make_record(text="   ")
        with pytest.raises(EmptySourceText):
            refine(rec, mock_gateway)
        assert mock_gateway.backend_calls == 0

    def test_unscrubbed_text_rejected(self, mock_gateway):
        rec = make_record(text="اتصل بيا 01234567890")
        with pytest.raises(ValueError):
            refine(rec, mock_gateway)
        assert mock_gateway.backend_calls == 0

    def test_refusal_detected(self):
        gw = scripted_gateway(["I cannot help with medical questions."])
        with pytest.raises(RefusalDetected):
            refine(make_record(), gw)


class TestSummarize:
    def test_mock_two_sentence_rule(self, mock_gateway):
        rec = make_record(text="الاولى. الثانية. الثالثة.")
        assert summarize(rec, mock_gateway) == "الاولى. الثانية."

    def test_single_sentence_identity(self, mock_gateway):
        rec = make_record(text="جملة واحدة فقط")
        assert summarize(rec, mock_gateway) == "جملة واحدة فقط"

    def test_worked_example_keeps_complaint(self, mock_gateway):
        rec = make_record(text=SOURCE_COMPLAINT)
        out = summarize(rec, mock_gateway)
        assert "إسهال" in out and "إمساك" in out
        assert len(out) <= len(rec.text)

    def test_overlong_output_truncated_at_sentence_boundary(self):
        source = "شكوى المريض الاصلية هنا بطول معقول نسبيا."
        long_reply = "جملة اولى قصيرة. " + "هذه جملة ثانية طويلة جدا " * 5 + "."
        gw = scripted_gateway([long_reply])
        out = summarize(make_record(text=source), gw)
        assert out == "جملة اولى قصيرة."
        assert len(out) <= len(source)

    def test_overlong_single_sentence_hard_cut(self):
        source = "نص قصير."
        gw = scripted_gateway(["كلمة " * 40])
        out = summarize(make_record(text=source), gw)
        assert 0 < len(out) <= len(source)


class TestParseEntities:
    def test_labeled_lines(self):
        out = "symptom: fever, cough\ndrug: aspirin"
        entities = parse_entities(out, "fever cough aspirin")
        assert entities == [Entity("fever", "symptom"), Entity("cough", "symptom"),
                            Entity("aspirin", "drug")]

    def test_bare_comma_list_is_symptoms(self):
        entities = parse_entities("fever, cough", "fever and cough")
        assert [e.category for e in entities] == ["symptom", "symptom"]

    def test_dedup_exact(self):
        entities = parse_entities("fever, fever", "fever fever")
        assert entities == [Entity("fever", "symptom")]

    def test_unknown_category_dropped(self):
        out = "symptom: fever\nlocation: cairo"
        entities = parse_entities(out, "fever in cairo")
        assert [e.surface for e in entities] == ["fever"]

    def test_only_unknown_categories_is_parse_failure(self):
        with pytest.raises(ParseFailure):
            parse_entities("location: cairo", "text")

    def test_none_marker(self):
        assert parse_entities("none", "text") == []
        assert parse_entities("لا يوجد", "text") == []

    def test_normalized_flag_for_non_substring(self):
        entities = parse_entities("symptom: الصداع النصفي", "عندي صداع")
        assert entities == [Entity("الصداع النصفي", "symptom", normalized=True)]

    def test_arabic_category_aliases_and_comma(self):
        entities = parse_entities("اعراض: صداع، دوخة", "عندي صداع و دوخة")
        assert [e.surface for e in entities] == ["صداع", "دوخة"]
        assert all(e.category == "symptom" for e in entities)


class TestExtractEntities:
    def test_mock_lexicon_order_of_first_mention(self, mock_gateway):
        rec = make_record(text="headache then fever then headache")
        entities = extract_entities(rec, mock_gateway)
        assert [e.surface for e in entities] == ["headache", "fever"]
        assert all(not e.normalized for e in entities)

    def test_worked_example_symptoms(self, mock_gateway):
        rec = make_record(text=SOURCE_COMPLAINT)
        surfaces = [e.surface for e in extract_entities(rec, mock_gateway)]
        assert "إسهال" in surfaces and "إمساك" in surfaces
        assert all(e.category == "symptom"
                   for e in extract_entities(rec, mock_gateway))

    def test_no_lexicon_hits_empty_list(self, mock_gateway):
        rec = make_record(text="كلام عادي بدون اعراض معروفة")
        assert extract_entities(rec, mock_gateway) == []

    def test_reprompt_recovers(self):
        backend = ScriptedBackend(["location: cairo", "symptom: fever"])
        gw = Gateway(backend)
        rec = make_record(text="fever since yesterday")
        entities = extract_entities(rec, gw)
        assert [e.surface for e in entities] == ["fever"]
        assert len(backend.prompts) == 2
        assert "Reminder" in backend.prompts[1]

    def test_parse_failure_after_reprompt(self):
        gw = scripted_gateway(["location: cairo"])
        with pytest.raises(ParseFailure):
            extract_entities(make_record(text="fever"), gw)


class TestBundleStore:
    def test_round_trip(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        bundle = PreprocessBundle("r1", "refined", "summary",
                                  [Entity("fever", "symptom")], {"refine": "abc"})
        store.save(bundle)
        assert store.load("r1") == bundle

    def test_hostile_record_id_sanitized(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        bundle = PreprocessBundle("p/1:x", "a", "b", [])
        store.save(bundle)
        assert store.load("p/1:x").record_id == "p/1:x"
        assert store.load("p_1_x") is None  # different id, different record
        # record ids never become file names
        assert sorted(p.name for p in (tmp_path / "bundles").iterdir()) == ["bundles.jsonl"]
        assert BundleStore(tmp_path / "bundles").load("p/1:x") == bundle

    @pytest.mark.parametrize("damage", [b'{"record_id": "r1", "ref', b'{"record_id": "r1"}',
                                        b"[]"], ids=["truncated", "missing-keys", "not-object"])
    def test_damaged_bundle_is_a_user_error_naming_the_path(self, tmp_path, damage):
        store = BundleStore(tmp_path / "bundles")
        store.save(PreprocessBundle("r1", "a", "b", []))
        store.save(PreprocessBundle("r2", "c", "d", []))
        lines = open(store.path, "rb").read().split(b"\n")
        with open(store.path, "wb") as fh:
            fh.write(b"\n".join([damage, *lines[1:]]))
        store = BundleStore(tmp_path / "bundles")
        assert store.load("r1") is None
        assert store.load("r2").refined == "c"
        records = [make_record(rid=rid) for rid in ("r1", "r2")]
        with pytest.raises(UserError, match=f"'r1' in {re.escape(store.path)}$"):
            build_variant(records, store, "refined")

    def test_store_hash_changes_with_content(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        store.save(PreprocessBundle("r1", "a", "b", []))
        h1 = store.store_hash()
        store.save(PreprocessBundle("r2", "c", "d", []))
        assert store.store_hash() != h1

    def test_store_hash_ignores_line_order_and_skipped_lines(self, tmp_path):
        one, two = PreprocessBundle("r1", "a", "b", []), PreprocessBundle("r2", "c", "d", [])
        forward = BundleStore(tmp_path / "forward")
        forward.save(one)
        forward.save(two)
        backward = BundleStore(tmp_path / "backward")
        backward.save(two)
        with open(backward.path, "ab") as fh:
            fh.write(b'{"record_id": "r3", "ref\n')
        backward.save(one)
        assert BundleStore(tmp_path / "backward").store_hash() == forward.store_hash()

    def test_later_line_wins(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        store.save(PreprocessBundle("r1", "old", "b", []))
        store.save(PreprocessBundle("r1", "new", "b", []))
        assert BundleStore(tmp_path / "bundles").load("r1").refined == "new"


class TestRunBundle:
    def _records(self, n=5):
        return [make_record(rid=f"r{i}", text=f"عندي حمى شديد من {i + 2} ايام.")
                for i in range(n)]

    def test_full_run(self, mock_gateway, tmp_path):
        from medcascade.corpus import scrub_pii
        store = BundleStore(tmp_path / "bundles")
        records = self._records()
        bundles = run_bundle(records, mock_gateway, store=store)
        assert len(bundles) == 5
        assert {b.record_id for b in bundles} == {r.id for r in records}
        source = {r.id: scrub_pii(r.text) for r in records}
        for bundle in bundles:
            assert bundle.refined and bundle.summarized
            assert len(bundle.summarized) <= len(source[bundle.record_id])
            for entity in bundle.entities:
                assert entity.normalized or entity.surface in source[bundle.record_id]
            assert set(bundle.prompt_hashes) == {"refine", "summarize", "ner"}
        assert not (tmp_path / "bundles" / "failures.jsonl").exists()

    def test_rerun_replays_finished_records_from_the_cache(self, mock_gateway, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        records = self._records()
        run_bundle(records[:3], mock_gateway, store=store)
        assert mock_gateway.backend_calls == 9  # 3 records x 3 stages
        bundles = run_bundle(records, mock_gateway, store=store)
        assert len(bundles) == 5
        # only records 4-5 reach the backend
        assert (mock_gateway.backend_calls, mock_gateway.cache_hits) == (15, 9)

    def test_ner_failure_degrades_with_ledger(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        gw = scripted_gateway(["location: cairo"])  # refine/summarize get junk too
        records = [make_record(rid="r1", text="fever now. more text.")]
        bundles = run_bundle(records, gw, store=store)
        assert len(bundles) == 1
        assert bundles[0].entities == []
        ledger_path = tmp_path / "bundles" / "failures.jsonl"
        entries = [json.loads(l) for l in ledger_path.read_text().splitlines()]
        ner_entries = [e for e in entries if e["stage"] == "ner"]
        assert ner_entries and ner_entries[0]["fatal"] is False
        assert ner_entries[0]["record_id"] == "r1"

    def test_gateway_failure_falls_back_fatally(self, tmp_path):
        class DeadBackend:
            backend_id = "dead"
            prompt_style = "instruct"
            scope = None

            def complete(self, prompt):
                raise TransientBackendError("down")

        gw = Gateway(DeadBackend(), retry=RetryPolicy(max_retries=1), sleep=lambda s: None)
        store = BundleStore(tmp_path / "bundles")
        records = [make_record(rid="r1", text="نص المريض هنا.")]
        bundles = run_bundle(records, gw, store=store)
        # degraded bundle still produced, failures ledgered as fatal
        assert bundles[0].refined == "نص المريض هنا."
        entries = [json.loads(l) for l in
                   (tmp_path / "bundles" / "failures.jsonl").read_text().splitlines()]
        assert {e["stage"] for e in entries} == {"refine", "summarize", "ner"}
        fatal = {e["stage"]: e["fatal"] for e in entries}
        assert fatal["refine"] and fatal["summarize"] and not fatal["ner"]
        # no record lost: every input id has a bundle, fatal ones degraded
        assert {b.record_id for b in bundles} == {"r1"}

    def test_crash_then_rerun_ledgers_each_failure_once(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        records = self._records(3)
        cache = ResponseCache(tmp_path / "cache")
        with pytest.raises(RuntimeError):
            run_bundle(records, Gateway(NerRefusingBackend(crash_on="من 3 ايام"), cache=cache),
                       store=store)
        assert _ledger(tmp_path) == [("r0", "ner")]   # r0 finished before the crash
        gw = Gateway(NerRefusingBackend(), cache=ResponseCache(tmp_path / "cache"))
        run_bundle(records, gw, store=store)
        assert _ledger(tmp_path) == [("r0", "ner"), ("r1", "ner"), ("r2", "ner")]
        # r0's four completions (NER is asked twice) come from the cache; the
        # crash came on r1's first prompt
        assert (gw.backend_calls, gw.cache_hits) == (8, 4)

    def test_full_rerun_starts_an_empty_ledger(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        for _ in range(2):
            run_bundle(self._records(3), Gateway(NerRefusingBackend()), store=store)
        assert _ledger(tmp_path) == [("r0", "ner"), ("r1", "ner"), ("r2", "ner")]

    def test_mock_pipeline_is_reproducible(self, tmp_path):
        records = self._records()
        logs = []
        for run in ("a", "b"):
            store = BundleStore(tmp_path / run)
            gw = Gateway(MockBackend())
            run_bundle(records, gw, store=store)
            logs.append((tmp_path / run / "bundles.jsonl").read_bytes())
        assert logs[0].count(b"\n") == len(records)
        assert logs[0] == logs[1]

    def test_full_rerun_starts_an_empty_bundle_log(self, tmp_path):
        store = BundleStore(tmp_path / "bundles")
        run_bundle(self._records(3), Gateway(MockBackend()), store=store)
        run_bundle(self._records(2), Gateway(MockBackend()), store=store)
        assert (tmp_path / "bundles" / "bundles.jsonl").read_bytes().count(b"\n") == 2
        assert BundleStore(tmp_path / "bundles").load("r2") is None

    def test_rerun_after_a_torn_bundle_log_calls_no_backend(self, tmp_path):
        records = self._records()
        cache = tmp_path / "cache"
        run_bundle(records, Gateway(MockBackend(), cache=ResponseCache(cache)),
                   store=BundleStore(tmp_path / "bundles"))
        # a crash cuts the last line in the middle
        log = tmp_path / "bundles" / "bundles.jsonl"
        data = log.read_bytes()
        log.write_bytes(data[:data.rindex(b"\n", 0, len(data) - 1) + 40])
        store = BundleStore(tmp_path / "bundles")
        assert [store.load(r.id) is not None for r in records] == [True] * 4 + [False]
        gw = Gateway(MockBackend(), cache=ResponseCache(cache))
        bundles = run_bundle(records, gw, store=store)
        assert len(bundles) == 5
        assert (gw.backend_calls, gw.cache_hits) == (0, 15)
        assert log.read_bytes() == data


class TestTemplates:
    def test_templates_render_text(self):
        for style in ("sentinel", "instruct"):
            for stage in ("refine", "summarize", "ner"):
                rendered = render(style, stage, "PAYLOAD")
                assert "PAYLOAD" in rendered

    def test_sentinel_templates_start_with_sentinel(self):
        assert render("sentinel", "refine", "x").startswith("REFINE:")
        assert render("sentinel", "summarize", "x").startswith("SUMMARIZE:")
        assert render("sentinel", "ner", "x").startswith("NER:")

    def test_hashes_stable_and_distinct(self):
        hashes = template_hashes("instruct")
        assert set(hashes) == {"refine", "summarize", "ner"}
        assert len(set(hashes.values())) == 3
        assert hashes == template_hashes("instruct")

    def test_the_layers_open_no_file(self, monkeypatch):
        def no_open(*args, **kwargs):
            raise AssertionError(f"a layer opened {args[0]!r}")

        record = make_record("r1", SOURCE_COMPLAINT)
        gw = Gateway(MockBackend())
        monkeypatch.setattr("builtins.open", no_open)
        assert refine(record, gw) and summarize(record, gw)
        assert isinstance(extract_entities(record, gw), list)
