"""Record/label data model, corpus IO, PII scrubbing, stratified splits.

Canonical storage is JSONL (one record per line, UTF-8) with a JSON manifest
sidecar declaring the label vocabularies; CSV is import-only.  Label
vocabularies are closed: a record whose label is missing from the manifest
is rejected at load time rather than becoming a silent new class.  A record
carries the two labels the tasks score, Type and Severity; any other label
key (older corpora carry ``diagnosis``) is ignored, and any other manifest
vocabulary passes through to the split manifests as data.
"""

from __future__ import annotations

import csv
import json
import os
import re
import unicodedata
from dataclasses import dataclass, fields, replace

import numpy as np

from .atomic import json_line, read_json, text_digest, write_json, write_jsonl
from .errors import ClassTooSmall, CorruptArtifact, DuplicateId, MalformedRecord, UnknownLabel

GENDERS = ("male", "female", "unspecified")
AGE_RANGE = (0, 130)
SCHEMA_VERSION = 1
TASKS = ("type", "severity")   # a record's labels, in report order; every model classifies both


@dataclass(frozen=True)
class LabelSet:
    """A record's label for each task, one field per task in ``TASKS`` order."""
    condition_type: str
    severity: str

    def get(self, task: str) -> str:
        return getattr(self, _LABEL_FIELDS[task])

    def to_json(self) -> dict:
        return {task: self.get(task) for task in TASKS}


_LABEL_FIELDS = dict(zip(TASKS, (f.name for f in fields(LabelSet))))


@dataclass(frozen=True)
class ComplaintRecord:
    id: str
    text: str
    labels: LabelSet
    age: int | None = None
    gender: str = "unspecified"

    def to_json(self) -> dict:
        return {"id": self.id, "text": self.text, "age": self.age,
                "gender": None if self.gender == "unspecified" else self.gender,
                "labels": self.labels.to_json()}


@dataclass
class CorpusManifest:
    vocab: dict[str, list[str]]
    record_count: int = 0
    schema_version: int = SCHEMA_VERSION
    split: dict | None = None     # {"ratios": [...], "seed": int, "part": "train"}

    def validate(self) -> None:
        if not isinstance(self.vocab, dict):
            raise MalformedRecord(0, "vocab", "must be an object")
        for task in TASKS:
            if task not in self.vocab:
                raise MalformedRecord(0, f"vocab.{task}", "missing vocabulary")
        for task, classes in self.vocab.items():
            if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
                raise MalformedRecord(0, f"vocab.{task}", "must be a list of strings")
            if len(classes) < 2:
                raise MalformedRecord(0, f"vocab.{task}", "needs >= 2 entries")
            if len(set(classes)) != len(classes):
                raise MalformedRecord(0, f"vocab.{task}", "duplicate entries")

    def to_json(self) -> dict:
        out = {"schema_version": self.schema_version, "vocab": self.vocab,
               "record_count": self.record_count}
        if self.split is not None:
            out["split"] = self.split
        return out

    @classmethod
    def from_json(cls, data: dict) -> "CorpusManifest":
        m = cls(vocab=data["vocab"], record_count=data.get("record_count", 0),
                schema_version=data.get("schema_version", SCHEMA_VERSION),
                split=data.get("split"))
        m.validate()
        return m


def manifest_path_for(corpus_path: str) -> str:
    root, ext = os.path.splitext(str(corpus_path))
    return (root if ext in (".jsonl", ".csv") else str(corpus_path)) + ".manifest.json"


def read_manifest(path: str) -> CorpusManifest:
    """Load a manifest sidecar; an unreadable one raises ``CorruptArtifact``
    and an invalid one ``MalformedRecord``, each naming the file."""
    try:
        return read_json(path, build=CorpusManifest.from_json)
    except MalformedRecord as e:
        raise e.in_file(path) from None


def _parse_record(raw: dict, line_no: int, vocab: dict[str, list[str]]) -> ComplaintRecord:
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise MalformedRecord(line_no, "id", "must be a non-empty string")
    text = raw.get("text")
    if not isinstance(text, str) or not text.strip():
        raise MalformedRecord(line_no, "text", "must be non-empty")
    age = raw.get("age")
    if age is not None:
        if not isinstance(age, int) or isinstance(age, bool) or not AGE_RANGE[0] <= age <= AGE_RANGE[1]:
            raise MalformedRecord(line_no, "age", f"must be an integer in {AGE_RANGE}")
    gender = raw.get("gender")
    if gender is None:
        gender = "unspecified"
    if gender not in GENDERS:
        raise MalformedRecord(line_no, "gender", f"must be one of {GENDERS}")
    labels_raw = raw.get("labels")
    if not isinstance(labels_raw, dict):
        raise MalformedRecord(line_no, "labels", "must be an object")
    labels = [labels_raw.get(task) for task in TASKS]
    for task, label in zip(TASKS, labels):
        if not isinstance(label, str):
            raise MalformedRecord(line_no, f"labels.{task}", "required")
    for task, label in zip(TASKS, labels):
        if label not in vocab[task]:
            raise UnknownLabel(rid, task, label)
    return ComplaintRecord(id=rid, text=unicodedata.normalize("NFC", text), age=age,
                           gender=gender, labels=LabelSet(*labels))


def _jsonl_rows(fh):
    """(line number, raw record) per non-blank JSONL line."""
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedRecord(line_no, "json", str(e)) from e
        if not isinstance(raw, dict):
            raise MalformedRecord(line_no, "json", "must be an object")
        yield line_no, raw


def _csv_rows(fh):
    """(line number, raw record) per CSV row; the header is line 1."""
    for line_no, row in enumerate(csv.DictReader(fh), start=2):
        age = row.get("age", "")
        try:
            age = int(age) if age not in ("", None) else None
        except (TypeError, ValueError) as e:
            raise MalformedRecord(line_no, "age", str(e)) from e
        yield line_no, {"id": row.get("id"), "text": row.get("text"), "age": age,
                        "gender": row.get("gender") or None,
                        "labels": {task: row.get(task) for task in TASKS}}


def corpus_format(path: str) -> str:
    """``csv`` for a path ending in ``.csv``, else ``jsonl``."""
    return "csv" if str(path).endswith(".csv") else "jsonl"


def load_corpus(path: str) -> tuple[list[ComplaintRecord], CorpusManifest]:
    """Load and validate a corpus, read as ``corpus_format(path)``; record
    order is preserved from the file."""
    manifest_path = manifest_path_for(path)
    if not os.path.exists(manifest_path):
        raise MalformedRecord(0, "manifest", f"{manifest_path} not found")
    manifest = read_manifest(manifest_path)

    rows = _csv_rows if corpus_format(path) == "csv" else _jsonl_rows
    records: list[ComplaintRecord] = []
    seen: set[str] = set()
    try:
        with open(path, encoding="utf-8-sig") as fh:   # a BOM, as Excel writes, is skipped
            for line_no, raw in rows(fh):
                rec = _parse_record(raw, line_no, manifest.vocab)
                if rec.id in seen:
                    raise DuplicateId(rec.id)
                seen.add(rec.id)
                records.append(rec)
    except MalformedRecord as e:
        raise e.in_file(path) from None
    except (UnicodeDecodeError, OSError, csv.Error) as e:   # not UTF-8, a directory, bad CSV
        raise CorruptArtifact.at(path, e) from e
    manifest.record_count = len(records)
    return records, manifest


def write_corpus(path: str, records: list[ComplaintRecord], manifest: CorpusManifest) -> None:
    """Write JSONL + manifest sidecar atomically (temp file + rename)."""
    manifest = replace(manifest, record_count=len(records))
    write_jsonl(path, (r.to_json() for r in records))
    write_json(manifest_path_for(path), manifest.to_json())


def corpus_hash(records: list[ComplaintRecord]) -> str:
    return text_digest("".join(json_line(r.to_json()) for r in records))


# -- PII scrubbing ----------------------------------------------------------
#
# Pattern-based on purpose: deterministic, auditable, and idempotent.  Order
# matters: URLs can embed digits and @, emails embed dots, so they go first;
# 14+ digit runs are national-id length, shorter runs (8-13) phone-length.
# Runs of <= 7 digits (ages, durations, dosages, blood pressure) are left
# alone.

_PII_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r'(?:https?://|www\.)[^\s<>"\']+'), "<URL>"),
    (re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+"), "<EMAIL>"),
    (re.compile(r"(?<!\d)\d{14,}(?!\d)"), "<ID>"),
    (re.compile(r"(?<!\d)\+?\d{3,4}(?:[-\s]\d{3,4}){2,3}(?!\d)"), "<PHONE>"),
    (re.compile(r"(?<!\d)\+?\d{8,13}(?!\d)"), "<PHONE>"),
]


def scrub_pii(text: str) -> str:
    """Replace phones, emails, URLs, and id-length digit runs with placeholders.

    Total and idempotent; medical content (ages, symptom durations, drug
    doses) is untouched because short digit runs never match.
    """
    for pattern, placeholder in _PII_PATTERNS:
        text = pattern.sub(placeholder, text)
    return text


# -- stratified split --------------------------------------------------------

def stratified_split(records: list[ComplaintRecord], ratios: tuple[float, float, float],
                     seed: int,
                     ) -> tuple[list[ComplaintRecord], list[ComplaintRecord], list[ComplaintRecord]]:
    """Split into (train, val, test) stratified on the Type label.

    Per class, counts follow the largest-remainder method (within one record
    of the exact ratios); every split is then guaranteed at least one record
    per class, which takes precedence for very small classes.  Deterministic
    in (records, ratios, seed); each split preserves input order.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positive fractions summing to 1, got {ratios}")

    by_class: dict[str, list[int]] = {}
    for idx, rec in enumerate(records):
        by_class.setdefault(rec.labels.condition_type, []).append(idx)
    for cls, idxs in sorted(by_class.items()):
        if len(idxs) < 3:
            raise ClassTooSmall(cls, len(idxs), 3)

    rng = np.random.default_rng(seed)
    assignment: dict[int, int] = {}
    for cls in sorted(by_class):
        idxs = by_class[cls]
        order = rng.permutation(len(idxs))
        m = len(idxs)
        ideal = [m * r for r in ratios]
        counts = [int(np.floor(v)) for v in ideal]
        remainders = sorted(range(3), key=lambda s: (-(ideal[s] - counts[s]), s))
        for s in remainders[: m - sum(counts)]:
            counts[s] += 1
        for s in range(3):
            while counts[s] == 0:
                donor = int(np.argmax(counts))
                counts[donor] -= 1
                counts[s] += 1
        bounds = [counts[0], counts[0] + counts[1]]
        for pos, oi in enumerate(order):
            split = 0 if pos < bounds[0] else (1 if pos < bounds[1] else 2)
            assignment[idxs[oi]] = split

    splits: tuple[list[ComplaintRecord], ...] = ([], [], [])
    for idx, rec in enumerate(records):
        splits[assignment[idx]].append(rec)
    return splits


def scrub_records(records: list[ComplaintRecord]) -> list[ComplaintRecord]:
    return [replace(r, text=scrub_pii(r.text)) for r in records]


def label_counts(records, task: str) -> dict[str, int]:
    """Count per label of ``task`` over records or variant examples, in order
    of first appearance."""
    counts: dict[str, int] = {}
    for r in records:
        label = r.labels.get(task)
        counts[label] = counts.get(label, 0) + 1
    return counts
