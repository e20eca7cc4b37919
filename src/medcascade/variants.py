"""Evaluation-condition datasets: normal, refined, summarized, ner.

Every example carries the scrubbed source text; an augmented condition adds
one preprocessing output as its ``aux`` text, which the tokenizer lays out
after a ``[SEP]``, so the normal condition (``aux`` empty) stays a strict
ablation.  Labels are copied unchanged; an empty output leaves ``aux`` empty
and is counted, not dropped.  A bundle made from other text than the record's
scrubbed text is stale and counts as missing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .atomic import file_digest, text_digest, write_json, write_jsonl
from .corpus import TASKS, ComplaintRecord, LabelSet, corpus_hash, scrub_pii
from .errors import CorruptArtifact, MissingBundle
from .preprocess import BundleStore

ENTITY_JOIN = "، "
# each augmented condition's aux text: its layer's output in a record's bundle
_AUX_TEXT = {
    "refined": lambda bundle: bundle.refined,
    "summarized": lambda bundle: bundle.summarized,
    "ner": lambda bundle: ENTITY_JOIN.join(e.surface for e in bundle.entities),
}
CONDITIONS = ("normal", *_AUX_TEXT)


@dataclass(frozen=True)
class VariantExample:
    record_id: str
    text: str
    aux: str
    labels: LabelSet

    def to_json(self) -> dict:
        return {"record_id": self.record_id, "text": self.text, "aux": self.aux,
                "labels": self.labels.to_json()}


@dataclass
class DatasetVariant:
    condition: str
    examples: list[VariantExample]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.examples)


def build_variant(records: list[ComplaintRecord], bundles: BundleStore,
                  condition: str) -> DatasetVariant:
    """Deterministic variant for one condition, ordered by record id; only an
    augmented condition reads ``bundles``."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}, expected one of {CONDITIONS}")

    examples: list[VariantExample] = []
    empty_aux = 0
    for record in sorted(records, key=lambda r: r.id):
        text, aux = scrub_pii(record.text), ""
        if condition != "normal":
            bundle = bundles.load(record.id)
            if bundle is None or bundle.source_sha256 != text_digest(text):
                raise MissingBundle(f"run `medcascade preprocess`: no bundle for the current "
                                    f"text of record {record.id!r} in {bundles.path}")
            aux = _AUX_TEXT[condition](bundle).strip()
            empty_aux += not aux
        examples.append(VariantExample(record.id, text, aux, record.labels))

    provenance = {
        "condition": condition,
        "corpus_hash": corpus_hash(sorted(records, key=lambda r: r.id)),
        "bundle_store_hash": file_digest(bundles.path) if condition != "normal" else None,
        "empty_aux_count": empty_aux,
        "count": len(examples),
    }
    return DatasetVariant(condition=condition, examples=examples, provenance=provenance)


def variant_paths(directory: str, condition: str, split: str) -> tuple[str, str]:
    base = os.path.join(str(directory), condition)
    return os.path.join(base, f"{split}.jsonl"), os.path.join(base, f"{split}.provenance.json")


def write_variant(variant: DatasetVariant, directory: str, split: str) -> str:
    """JSONL of examples plus a provenance sidecar, which is for audit and
    which no stage reads; atomic."""
    data_path, sidecar_path = variant_paths(directory, variant.condition, split)
    write_jsonl(data_path, (e.to_json() for e in variant.examples))
    write_json(sidecar_path, variant.provenance)
    return data_path


def load_variant(directory: str, condition: str, split: str,
                 vocab: dict[str, list[str]]) -> DatasetVariant:
    """Read a variant's examples back from ``<split>.jsonl``; a damaged file,
    one with no examples (every variant comes from a split that holds every
    class), or a label outside ``vocab`` raises :class:`CorruptArtifact`
    naming the file."""
    data_path = variant_paths(directory, condition, split)[0]
    examples: list[VariantExample] = []
    try:
        with open(data_path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                raw = json.loads(line)
                labels = [raw["labels"][task] for task in TASKS]
                fields = (raw["record_id"], raw["text"], raw["aux"], *labels)
                if not all(isinstance(f, str) for f in fields):
                    raise TypeError("record_id, text, aux and every label must be strings")
                for task, label in zip(TASKS, labels):
                    if label not in vocab[task]:
                        raise ValueError(f"record {fields[0]!r}: {task} label {label!r} "
                                         "is not in the corpus vocabulary")
                examples.append(VariantExample(*fields[:3], LabelSet(*labels)))
    except CorruptArtifact.DECODE_ERRORS as e:
        raise CorruptArtifact.at(data_path, e) from e
    if not examples:
        raise CorruptArtifact(f"{data_path} holds no examples")
    return DatasetVariant(condition=condition, examples=examples)
