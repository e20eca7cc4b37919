"""The three LLM preprocessing layers: refinement, summarization, entity
extraction, plus the per-record bundle store and failure ledger.

Each layer sends one prompt through the gateway and gets one answer back.
Two template styles ship with the package: ``sentinel`` (the bare
``REFINE:``/``SUMMARIZE:``/``NER:`` prompts the mock backend understands)
and ``instruct`` (full instructions for live chat models).  The gateway's
backend names its style, and the hashes of the templates actually used are
pinned into every bundle for provenance.

Entity output is parsed line-oriented: ``category: surface, surface`` lines,
or a bare comma-separated list (the mock's style), which is read as symptoms.
An unparseable answer earns one reprompt with a format reminder, then the
record degrades to an empty entity list.

Bundles live in one append-only log, ``bundles.jsonl``, beside the failure
ledger ``failures.jsonl``: one line per record, appended once its three
layers are done, read once into an index by record id.  A damaged or torn
line is skipped, so its record counts as not done; a later line for a
record wins.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import ComplaintRecord, scrub_pii
from .atomic import append_jsonl, json_line, read_jsonl
from .errors import (CorruptArtifact, EmptySourceText, MedcascadeError, ParseFailure,
                     RefusalDetected, ResponseEmpty)
from .gateway import Gateway

logger = logging.getLogger(__name__)

STAGES = ("refine", "summarize", "ner")

_PROMPTS_ROOT = Path(__file__).parent / "prompts"
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?؟])\s+")
_ITEM_SPLIT = re.compile(r"[,،;؛]")

NONE_MARKERS = {"none", "n/a", "-", "لا يوجد", "لا شيء", "لا توجد"}

_CATEGORY_ALIASES = {
    "symptom": "symptom", "symptoms": "symptom", "عرض": "symptom", "اعراض": "symptom",
    "أعراض": "symptom", "الأعراض": "symptom",
    "condition": "condition", "conditions": "condition", "حالة": "condition",
    "حالات": "condition", "مرض": "condition", "امراض": "condition", "أمراض": "condition",
    "drug": "drug", "drugs": "drug", "medication": "drug", "medications": "drug",
    "دواء": "drug", "ادوية": "drug", "أدوية": "drug", "علاج": "drug",
}

REFUSAL_PHRASES = (
    "i cannot", "i can't", "i am unable", "i'm unable", "as an ai",
    "لا أستطيع", "لا استطيع", "لا يمكنني",
)

FORMAT_REMINDER = ("Reminder: answer only with lines of the form "
                   "'symptom: ...', 'condition: ...', 'drug: ...' or the word 'none'.")


@dataclass(frozen=True)
class Entity:
    surface: str
    category: str
    normalized: bool = False


@dataclass
class PreprocessBundle:
    record_id: str
    refined: str
    summarized: str
    entities: list[Entity]
    prompt_hashes: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "PreprocessBundle":
        return cls(record_id=data["record_id"], refined=data["refined"],
                   summarized=data["summarized"],
                   entities=[Entity(e["surface"], e["category"], e.get("normalized", False))
                             for e in data["entities"]],
                   prompt_hashes=data.get("prompt_hashes", {}))


# Read once per process, at import, so the layers open no file and a missing
# template fails before the first gateway call.
TEMPLATES = {(style, stage): (_PROMPTS_ROOT / style / f"{stage}.txt").read_text(encoding="utf-8")
             for style in ("sentinel", "instruct") for stage in STAGES}


def render(style: str, stage: str, text: str) -> str:
    """The ``style`` template of ``stage`` with ``text`` in place."""
    return TEMPLATES[(style, stage)].format(text=text)


def template_hashes(style: str) -> dict[str, str]:
    """The sha256 of each stage's template in ``style``, by stage."""
    return {stage: hashlib.sha256(TEMPLATES[(style, stage)].encode("utf-8")).hexdigest()
            for stage in STAGES}


def _source_text(record: ComplaintRecord) -> str:
    text = record.text.strip()
    if not text:
        raise EmptySourceText(f"record {record.id!r} is empty after scrubbing")
    if scrub_pii(text) != text:
        raise ValueError(f"record {record.id!r} must be PII-scrubbed before any LLM call")
    return text


def _is_refusal(output: str) -> bool:
    lowered = output.lower()
    return any(p in lowered for p in REFUSAL_PHRASES)


def _ask(gw: Gateway, prompt: str) -> str:
    return gw.complete(prompt)


def refine(record: ComplaintRecord, gw: Gateway) -> str:
    """Cleaned restatement of the complaint, medical content preserved."""
    text = _source_text(record)
    out = _ask(gw, render(gw.backend.prompt_style, "refine", text))
    if _is_refusal(out):
        raise RefusalDetected(f"record {record.id!r}: refine output looks like a refusal")
    return out.strip()


def summarize(record: ComplaintRecord, gw: Gateway) -> str:
    """Compressed complaint; never longer than the source (clamped post-hoc)."""
    text = _source_text(record)
    out = _ask(gw, render(gw.backend.prompt_style, "summarize", text))
    if _is_refusal(out):
        raise RefusalDetected(f"record {record.id!r}: summary output looks like a refusal")
    out = out.strip()
    if len(out) > len(text):
        out = _truncate_to_len(out, len(text))
        logger.warning("summary for %s longer than source; truncated", record.id)
    return out


def _truncate_to_len(text: str, limit: int) -> str:
    """Cut at a sentence boundary if one fits, otherwise hard-cut."""
    kept: list[str] = []
    total = 0
    for sentence in _SENTENCE_SPLIT.split(text):
        extra = len(sentence) + (1 if kept else 0)
        if total + extra > limit:
            break
        kept.append(sentence)
        total += extra
    if kept:
        return " ".join(kept)
    return text[:limit].rstrip() or text[:limit]


def parse_entities(output: str, source_text: str) -> list[Entity]:
    """Line-oriented entity parser; see module docstring for the grammar."""
    out = output.strip()
    if not out or out.lower() in NONE_MARKERS:
        return []
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    entities: list[Entity] = []
    invalid = 0

    def add(surface: str, category: str) -> None:
        surface = surface.strip()
        if surface and surface.lower() not in NONE_MARKERS:
            entities.append(Entity(surface=surface, category=category,
                                   normalized=surface not in source_text))

    if any(":" in ln for ln in lines):
        for ln in lines:
            if ":" not in ln:
                invalid += 1
                continue
            head, rest = ln.split(":", 1)
            category = _CATEGORY_ALIASES.get(head.strip().lower())
            if category is None:
                logger.debug("dropping line with unknown category: %r", ln[:60])
                invalid += 1
                continue
            for item in _ITEM_SPLIT.split(rest):
                add(item, category)
    else:
        for ln in lines:
            for item in _ITEM_SPLIT.split(ln):
                add(item, "symptom")

    if not entities and invalid:
        raise ParseFailure(f"no entities parsed from {len(lines)} line(s)")

    seen: set[tuple[str, str]] = set()
    deduped: list[Entity] = []
    for e in entities:
        key = (e.surface, e.category)
        if key not in seen:
            seen.add(key)
            deduped.append(e)
    return deduped


def extract_entities(record: ComplaintRecord, gw: Gateway) -> list[Entity]:
    """Deduplicated, order-of-first-mention entity list for one record.

    On an unparseable or refusal answer, reprompts once with a format
    reminder; a second failure raises ParseFailure.  An empty completion
    means no entities.
    """
    text = _source_text(record)
    prompt = render(gw.backend.prompt_style, "ner", text)
    for attempt in range(2):
        try:
            out = _ask(gw, prompt)
        except ResponseEmpty:
            return []
        if not _is_refusal(out):
            try:
                return parse_entities(out, text)
            except ParseFailure:
                if attempt == 1:
                    raise
        elif attempt == 1:
            raise ParseFailure(f"record {record.id!r}: refusal after reprompt")
        prompt = f"{prompt}\n{FORMAT_REMINDER}"
    raise ParseFailure(f"record {record.id!r}: unreachable")  # pragma: no cover


# -- bundle store and orchestration -------------------------------------------

class BundleStore:
    """Append-only log of bundles, ``bundles.jsonl`` in a bundles directory,
    indexed by record id on first use."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, "bundles.jsonl")
        self._index: dict[str, PreprocessBundle] | None = None
        self._hash: str | None = None

    def _bundles(self) -> dict[str, PreprocessBundle]:
        if self._index is None:
            self._index = {}
            for entry in read_jsonl(self.path):
                try:
                    bundle = PreprocessBundle.from_json(entry)
                except CorruptArtifact.DECODE_ERRORS:  # a damaged line: not done
                    continue
                if isinstance(bundle.record_id, str):
                    self._index[bundle.record_id] = bundle
        return self._index

    def save(self, bundle: PreprocessBundle) -> None:
        index = self._bundles()
        append_jsonl(self.path, asdict(bundle))
        index[bundle.record_id] = bundle
        self._hash = None

    def load(self, record_id: str) -> PreprocessBundle | None:
        return self._bundles().get(record_id)

    def clear(self) -> None:
        """Start an empty log."""
        if os.path.exists(self.path):
            os.remove(self.path)
        self._index, self._hash = {}, None

    def store_hash(self) -> str:
        """Digest of the bundles sorted by record id: neither the order of the
        lines nor skipped lines change it."""
        if self._hash is None:
            h = hashlib.sha256()
            for _, bundle in sorted(self._bundles().items()):
                h.update(json_line(asdict(bundle)).encode("utf-8"))
            self._hash = h.hexdigest()
        return self._hash


@dataclass
class LedgerEntry:
    record_id: str
    stage: str
    error: str
    fatal: bool


def _process_record(record: ComplaintRecord, gw: Gateway,
                    hashes: dict[str, str]) -> tuple[PreprocessBundle, list[LedgerEntry]]:
    """One record's bundle through all three layers, and its ledger entries."""
    scrubbed = scrub_pii(record.text)
    if not scrubbed.strip():
        return (PreprocessBundle(record.id, "", "", [], dict(hashes)),
                [LedgerEntry(record.id, "refine", "EmptySourceText", fatal=True)])
    source = ComplaintRecord(id=record.id, text=scrubbed, labels=record.labels,
                             age=record.age, gender=record.gender)
    ledger: list[LedgerEntry] = []
    try:
        refined = refine(source, gw)
    except MedcascadeError as e:
        ledger.append(LedgerEntry(record.id, "refine", e.category, fatal=True))
        refined = scrubbed.strip()
    try:
        summarized = summarize(source, gw)
    except MedcascadeError as e:
        ledger.append(LedgerEntry(record.id, "summarize", e.category, fatal=True))
        summarized = scrubbed.strip()
    try:
        entities = extract_entities(source, gw)
    except MedcascadeError as e:
        ledger.append(LedgerEntry(record.id, "ner", e.category, fatal=False))
        entities = []
    return PreprocessBundle(record.id, refined, summarized, entities, dict(hashes)), ledger


def run_bundle(records: list[ComplaintRecord], gw: Gateway,
               store: BundleStore) -> list[PreprocessBundle]:
    """Produce one bundle per record through all three layers.

    Never loses a record: stage failures are recorded in the failure ledger
    and the bundle degrades (fallback refined/summarized = scrubbed source,
    entities = empty) instead of aborting the run; the ledger is
    ``failures.jsonl`` in the store's directory, and each record's entries
    are appended right after its bundle is saved.  The bundle log and the
    ledger start empty; a rerun after a crash replays the finished records
    from the gateway's response cache.
    """
    ledger_path = os.path.join(store.directory, "failures.jsonl")
    hashes = template_hashes(gw.backend.prompt_style)
    store.clear()
    if os.path.exists(ledger_path):
        os.remove(ledger_path)

    bundles: list[PreprocessBundle] = []
    for record in records:
        bundle, ledger = _process_record(record, gw, hashes)
        store.save(bundle)
        bundles.append(bundle)
        try:
            for entry in ledger:
                append_jsonl(ledger_path, asdict(entry))
        except OSError as e:
            raise MedcascadeError(f"cannot write failure ledger {ledger_path}: {e}") from e
    return bundles
