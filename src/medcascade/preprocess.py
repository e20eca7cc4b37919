"""The three LLM preprocessing layers: refinement, summarization, entity
extraction, plus the per-record bundle store and failure ledger.

Each layer is a generator (PEP 342): it yields its prompt and is sent the
answer, or thrown the gateway's typed error.  One template per stage ships
with the package, full instructions for a chat model, sent to every backend,
the mock included; their hashes are pinned into every bundle for provenance.

Entity output is parsed line-oriented: ``category: surface, surface`` lines,
or a bare comma-separated list (the mock's style), which is read as symptoms.
An unparseable answer earns one reprompt with a format reminder, then the
record degrades to an empty entity list.

``run_bundle`` runs every record's three layers as (record, layer) tasks on
one thread, up to four live requests in flight: a task waits on its reply's
socket, or parked out a retry's back-off, then resumes where its layer
stopped, while the other tasks run.  Bundles live in ``bundles.jsonl``,
one line per record, beside the failure ledger ``failures.jsonl``, one line
per failed stage: each file written whole, atomically and in record order
once every task is done, so a crash part-way through a run leaves the
previous run's files as they were, and the log's bytes change exactly when
a bundle does (``variants`` hashes it as a file).  The log is read once into
an index by record id.  A damaged or torn line is skipped, so its record has
no bundle and ``variants`` refuses it.
Each bundle records the sha256 of the scrubbed text its layers were given,
so a variant never joins new text to the outputs of old text.
"""

from __future__ import annotations

import heapq
import logging
import os
import re
import selectors
import time
from collections.abc import Generator
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import ComplaintRecord, scrub_pii, scrub_records
from .atomic import read_jsonl, text_digest, write_jsonl
from .errors import (AuthError, CorruptArtifact, EmptySourceText, MedcascadeError,
                     ParseFailure, RefusalDetected, ResponseEmpty)
from .gateway import SENTENCE_SPLIT, Gateway, InFlight, RetryLater

logger = logging.getLogger(__name__)

STAGES = ("refine", "summarize", "ner")
_IN_FLIGHT = 4   # open exchanges at most: the only cap on the load a server gets

_PROMPTS_ROOT = Path(__file__).parent / "prompts"
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
    normalized: bool = False   # the surface is not in the source text


@dataclass
class PreprocessBundle:
    record_id: str
    refined: str
    summarized: str
    entities: list[Entity]
    prompt_hashes: dict[str, str] = field(default_factory=dict)
    source_sha256: str = ""   # of the scrubbed text the layers were given

    @classmethod
    def from_json(cls, data: dict) -> "PreprocessBundle":
        """The bundle of a log line; ``TypeError`` unless its record id, its
        texts and each entity's surface and category are strings."""
        entities = [Entity(e["surface"], e["category"], e.get("normalized", False))
                    for e in data["entities"]]
        strings = [data["record_id"], data["refined"], data["summarized"],
                   *(s for e in entities for s in (e.surface, e.category))]
        if not all(isinstance(s, str) for s in strings):
            raise TypeError("record_id, refined, summarized and each entity's surface "
                            "and category must be strings")
        return cls(record_id=data["record_id"], refined=data["refined"],
                   summarized=data["summarized"], entities=entities,
                   prompt_hashes=data.get("prompt_hashes", {}),
                   source_sha256=data.get("source_sha256", ""))


# Read once per process, at import, so the layers open no file and a missing
# template fails before the first gateway call.
TEMPLATES = {stage: (_PROMPTS_ROOT / f"{stage}.txt").read_text(encoding="utf-8")
             for stage in STAGES}


def render(stage: str, text: str) -> str:
    """The template of ``stage`` with ``text`` in place."""
    return TEMPLATES[stage].format(text=text)


def template_hashes() -> dict[str, str]:
    """The sha256 of each stage's template, by stage."""
    return {stage: text_digest(TEMPLATES[stage]) for stage in STAGES}


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


def refine(record: ComplaintRecord) -> Generator[str, str, str]:
    """Cleaned restatement of the complaint, medical content preserved."""
    text = _source_text(record)
    out = yield render("refine", text)
    if _is_refusal(out):
        raise RefusalDetected(f"record {record.id!r}: refine output looks like a refusal")
    return out.strip()


def summarize(record: ComplaintRecord) -> Generator[str, str, str]:
    """Compressed complaint; never longer than the source (clamped post-hoc)."""
    text = _source_text(record)
    out = yield render("summarize", text)
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
    for sentence in SENTENCE_SPLIT.split(text):
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
    labelled = any(":" in ln for ln in lines)
    entities: list[Entity] = []
    invalid = 0
    for ln in lines:   # a bare line reads as a symptom line
        head, colon, rest = ln.partition(":") if labelled else ("symptom", ":", ln)
        category = _CATEGORY_ALIASES.get(head.strip().lower()) if colon else None
        if category is None:
            logger.debug("dropping line with no known category: %r", ln[:60])
            invalid += 1
            continue
        for item in _ITEM_SPLIT.split(rest):
            surface = item.strip()
            if surface and surface.lower() not in NONE_MARKERS:
                entities.append(Entity(surface, category, surface not in source_text))

    if not entities and invalid:
        raise ParseFailure(f"no entities parsed from {len(lines)} line(s)")
    return list(dict.fromkeys(entities))   # equal entities share surface and category


def extract_entities(record: ComplaintRecord) -> Generator[str, str, list[Entity]]:
    """Deduplicated, order-of-first-mention entity list for one record.

    On an unparseable or refusal answer, reprompts once with a format
    reminder; a second failure raises ParseFailure.  An empty completion
    means no entities.
    """
    text = _source_text(record)
    prompt = render("ner", text)
    for attempt in range(2):
        try:
            out = yield prompt
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
    """The bundle log, ``bundles.jsonl`` in a bundles directory, indexed by
    record id on first use."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, "bundles.jsonl")
        self._index: dict[str, PreprocessBundle] | None = None

    def _bundles(self) -> dict[str, PreprocessBundle]:
        if self._index is None:
            self._index = {}
            for entry in read_jsonl(self.path):
                try:
                    bundle = PreprocessBundle.from_json(entry)
                except CorruptArtifact.DECODE_ERRORS:  # a damaged line: no bundle
                    continue
                self._index[bundle.record_id] = bundle
        return self._index

    def save(self, bundles: list[PreprocessBundle]) -> None:
        """Replace the log with ``bundles``, one line each, atomically."""
        write_jsonl(self.path, [asdict(bundle) for bundle in bundles])
        self._index = {bundle.record_id: bundle for bundle in bundles}

    def load(self, record_id: str) -> PreprocessBundle | None:
        return self._bundles().get(record_id)


@dataclass
class LedgerEntry:
    record_id: str
    stage: str
    error: str   # the error's category; ``RetriesExhausted`` is not final


def run_bundle(records: list[ComplaintRecord], gw: Gateway,
               store: BundleStore) -> list[PreprocessBundle]:
    """Produce one bundle per record through all three layers.

    Each (record, stage) task creates its layer's generator once and asks
    ``gw`` what it yields, one task at a time per prompt.  Tasks whose reply or
    turn has come run first, in record then ``STAGES`` order, then due retries
    and fresh tasks while fewer than ``_IN_FLIGHT`` exchanges are open.  An ask
    raising ``InFlight`` waits on its socket, one raising ``RetryLater`` its
    delay on ``gw.clock``; the stage waits in ``select``, or ``gw.sleep`` with
    none in flight.  A failed stage is ledgered and its output left empty:
    no text for refine or summarize (``variants`` then uses the normal text
    and counts it as an empty aux) and no entities for NER.  Only a stage out
    of retries (``RetriesExhausted``, in ``gw.retries_exhausted``) is not
    final.  An unreadable cache or a rejected key stops the run.  However the
    run stops, it closes every open exchange.
    """
    hashes = template_hashes()
    sources = scrub_records(records)
    fresh = ((i, k) for i in range(len(records)) for k in range(len(STAGES)))
    parked: list[tuple[float, tuple[int, int]]] = []   # heap of (due, (record, stage))
    arrived: list[tuple[int, int]] = []   # heap of tasks whose reply or turn has come
    layers, asking, done, failed = {}, {}, {}, {}   # task -> generator, the prompt it asks
    held = {}   # prompt -> the task asking it, then the tasks that ask it next
    with selectors.DefaultSelector() as sel:   # socket -> (its InFlight, the task waiting)
        try:
            while len(done) < len(STAGES) * len(records):
                now, task, flights = gw.clock(), None, list(sel.get_map().values())
                if arrived:
                    task = heapq.heappop(arrived)
                elif len(flights) < _IN_FLIGHT:
                    task = heapq.heappop(parked)[1] if parked and parked[0][0] <= now \
                        else next(fresh, None)
                if task is None and flights:   # wait for a reply, a deadline or a due retry
                    due = [parked[0][0] - now] if parked and len(flights) < _IN_FLIGHT else []
                    wait = min([key.data[0].deadline - time.monotonic() for key in flights] + due)
                    readable = {key.fileobj for key, _ in sel.select(max(wait, 0.0))}
                    for key in flights:   # unregistered before any task can read and close it
                        if key.fileobj in readable or key.data[0].deadline <= time.monotonic():
                            sel.unregister(key.fileobj)
                            key.data[0].ready = True
                            heapq.heappush(arrived, key.data[1])
                    continue
                if task is None:   # only parked tasks are left
                    gw.sleep(parked[0][0] - now)
                    task = heapq.heappop(parked)[1]
                i, stage = task[0], STAGES[task[1]]
                try:
                    if task not in layers:   # looked up at call time: a rebound layer is called
                        layers[task] = (refine, summarize, extract_entities)[task[1]](sources[i])
                        asking[task] = next(layers[task])
                    while held.setdefault(asking[task], [task])[0] == task:   # else wait its turn
                        try:
                            answer, error = _ask(gw, asking[task]), None
                        except MedcascadeError as e:   # thrown in at the layer's yield
                            answer, error = None, e
                        for waiting in held.pop(asking[task])[1:]:   # their turn has come
                            heapq.heappush(arrived, waiting)
                        asking[task] = (layers[task].throw(error) if error
                                        else layers[task].send(answer))
                    held[asking[task]].append(task)
                except StopIteration as stop:
                    done[task] = stop.value
                except InFlight as flight:   # no other task asks its prompt meanwhile
                    sel.register(flight.sock, selectors.EVENT_READ, (flight, task))
                except RetryLater as later:
                    heapq.heappush(parked, (gw.clock() + later.delay, task))
                except (CorruptArtifact, AuthError):   # an unreadable cache, a rejected key
                    raise
                except MedcascadeError as e:
                    done[task] = [] if stage == "ner" else ""
                    failed[task] = LedgerEntry(records[i].id, stage, e.category)
        finally:   # whatever ends the loop: the last task, a raised error, an interrupt
            for flight in gw._in_flight.values():
                flight.conn.close()
    bundles = [PreprocessBundle(r.id, *(done[i, k] for k in range(len(STAGES))), dict(hashes),
                                text_digest(sources[i].text)) for i, r in enumerate(records)]
    store.save(bundles)
    write_jsonl(os.path.join(store.directory, "failures.jsonl"),
                (asdict(failed[task]) for task in sorted(failed)))
    return bundles
