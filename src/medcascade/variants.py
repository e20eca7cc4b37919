"""Evaluation-condition datasets: normal, refined, summarized, ner.

Augmented conditions append one preprocessing output to the scrubbed source
text behind a reserved ``[AUX]`` separator, so the normal condition stays a
strict ablation and any single-input encoder can consume the result.  Labels
are copied unchanged; an empty auxiliary falls back to the normal text and
is counted, not dropped.  A bundle made from other text than the record's
scrubbed text is stale and counts as missing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .atomic import file_digest, read_json, text_digest, write_json, write_jsonl
from .corpus import ComplaintRecord, LabelSet, corpus_hash, scrub_pii
from .errors import CorruptArtifact, MissingBundle
from .preprocess import BundleStore
from .tokenizers import AUX_TOKEN

CONDITIONS = ("normal", "refined", "summarized", "ner")
AUX_SEP = f" {AUX_TOKEN} "
ENTITY_JOIN = "، "


@dataclass(frozen=True)
class VariantExample:
    record_id: str
    input_text: str
    labels: LabelSet

    def to_json(self) -> dict:
        return {"record_id": self.record_id, "input_text": self.input_text,
                "labels": self.labels.to_json()}


@dataclass
class DatasetVariant:
    condition: str
    examples: list[VariantExample]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.examples)


def build_variant(records: list[ComplaintRecord], bundles: BundleStore | None,
                  condition: str) -> DatasetVariant:
    """Deterministic variant for one condition, ordered by record id."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}, expected one of {CONDITIONS}")
    if condition != "normal" and bundles is None:
        raise MissingBundle(f"condition {condition!r} needs a bundle store")

    examples: list[VariantExample] = []
    empty_aux = 0
    for record in sorted(records, key=lambda r: r.id):
        normal_text = scrub_pii(record.text)
        if condition == "normal":
            input_text = normal_text
        else:
            bundle = bundles.load(record.id)
            if bundle is None or bundle.source_sha256 != text_digest(normal_text):
                raise MissingBundle(f"run `medcascade preprocess`: no bundle for the current "
                                    f"text of record {record.id!r} in {bundles.path}")
            if condition == "refined":
                aux = bundle.refined
            elif condition == "summarized":
                aux = bundle.summarized
            else:
                aux = ENTITY_JOIN.join(e.surface for e in bundle.entities)
            aux = aux.strip()
            if aux:
                input_text = f"{normal_text}{AUX_SEP}{aux}"
            else:
                input_text = normal_text
                empty_aux += 1
        examples.append(VariantExample(record.id, input_text, record.labels))

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
    """JSONL of examples plus a provenance sidecar; atomic."""
    data_path, sidecar_path = variant_paths(directory, variant.condition, split)
    write_jsonl(data_path, (e.to_json() for e in variant.examples))
    write_json(sidecar_path, variant.provenance)
    return data_path


def load_variant(directory: str, condition: str, split: str,
                 vocab: dict[str, list[str]] | None = None) -> DatasetVariant:
    """Read a variant back; a damaged file, one with no examples (every
    variant comes from a split that holds every class), or a label outside
    ``vocab`` raises :class:`CorruptArtifact` naming the file."""
    data_path, sidecar_path = variant_paths(directory, condition, split)
    examples: list[VariantExample] = []
    try:
        with open(data_path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                raw = json.loads(line)
                fields = (raw["record_id"], raw["input_text"],
                          raw["labels"]["type"], raw["labels"]["severity"])
                if not all(isinstance(f, str) for f in fields):
                    raise TypeError("record_id, input_text and both labels must be strings")
                for task, label in zip(("type", "severity"), fields[2:]):
                    if vocab is not None and label not in vocab[task]:
                        raise ValueError(f"record {fields[0]!r}: {task} label {label!r} "
                                         "is not in the corpus vocabulary")
                examples.append(VariantExample(*fields[:2], LabelSet(*fields[2:])))
    except CorruptArtifact.DECODE_ERRORS as e:
        raise CorruptArtifact.at(data_path, e) from e
    if not examples:
        raise CorruptArtifact(f"{data_path} holds no examples")
    provenance = read_json(sidecar_path) if os.path.exists(sidecar_path) else {}
    return DatasetVariant(condition=condition, examples=examples, provenance=provenance)
