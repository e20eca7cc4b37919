"""The digests the program writes or looks up, pinned to their values.

A response-cache key decides whether an existing cache still hits, and the
corpus and bundle-store hashes are written into variant provenance, so a
change of canonical form or of hashing must show here, not as silent misses.
"""

from medcascade import cli
from medcascade.atomic import file_digest
from medcascade.corpus import ComplaintRecord, LabelSet, corpus_hash
from medcascade.gateway import MockBackend, OpenAIChatBackend, cache_key
from medcascade.preprocess import BundleStore, Entity, PreprocessBundle, template_hashes

RECORD = ComplaintRecord(id="r1", text="عندي صداع شديد من 3 ايام.", age=40, gender="female",
                         labels=LabelSet(condition_type="chronic", severity="severe"))


def test_cache_keys():
    assert cache_key("NER: صداع وحمى", MockBackend()) == \
        "6f2f25350f122b4871c87f3344fe6a24589f9982212298b9b9cfd6025e469451"
    live = OpenAIChatBackend("openai", "http://localhost:8080/v1", model="gpt-3.5-turbo")
    assert cache_key("Extract the symptoms: صداع", live) == \
        "455ac58ab03ac0e02c4af641296233b67cda03f6d4f06bd45ac40c562fab6ced"


def test_mock_scope():
    assert MockBackend().scope == {
        "lexicon": "2a5b7100030eec979ea6e4fee54f9b774326fcccb258579325a85f5563fbcf34"}


def test_corpus_hash():
    assert corpus_hash([RECORD]) == \
        "60719130e03c818168cc64bd8dbf315966de2bc7fee5c7c3f39c10fa8e45f21e"


def test_bundle_store_hash(tmp_path):
    store = BundleStore(tmp_path)
    store.save([PreprocessBundle(
        "r1", "عندي صداع شديد", "صداع", [Entity("صداع", "symptom", True)], {"refine": "ab"}, "cd")])
    assert file_digest(store.path) == \
        "7b60b5de70a82cd5e8972180a6e786d2f2482d1705bd03d9cc4d1d83f87f5960"


def test_template_hashes():
    assert template_hashes() == {
        "refine": "608fb382b619ceb22d752ff3251f68db788c9c059c2e147f78f5971157d5a1e4",
        "summarize": "aea1fee31551443ae4693d5cb5173ddb31b0ce72e907878730b8cd834d2a9425",
        "ner": "97b775917bd9057ee735277239a6fafac51296e1f94d93bc85ab36f7136aa8d9"}


def test_stage_value_digest():
    assert cli._digest({"backend": "mock", "seed": 7}) == \
        "7590b8cd779441fa30a6f33c367b71085555228a28a87cf8202ec1185870ffe1"
