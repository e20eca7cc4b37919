"""Deterministic synthetic Arabic complaint corpus with a planted signal.

Class names here are placeholders invented for desk-scale runs, not real
clinical taxonomies.  Every record's text contains one type-marker token and
one severity-marker token, so a bag-of-words linear model can separate the
classes; markers are in the mock NER lexicon, which keeps the signal alive
in every preprocessing condition.  A minority of records carry PII spans so
ingestion has something to scrub.  Records carry the Type and Severity
labels only.
"""

from __future__ import annotations

import numpy as np

from .corpus import ComplaintRecord, CorpusManifest, LabelSet, write_corpus

TYPE_CLASSES = ("chronic", "acute", "skin")
SEVERITY_CLASSES = ("mild", "severe")

TYPE_MARKERS = {
    "chronic": ("سكري", "ضغط", "مزمن"),
    "acute": ("حمى", "انفلونزا", "التهاب"),
    "skin": ("طفح", "اكزيما", "حكة"),
}
SEVERITY_MARKERS = {"mild": ("خفيف", "بسيط"), "severe": ("شديد", "قوي")}

_OPENERS = ("السلام عليكم يا دكتور.", "لو سمحت يا دكتور.", "مرحبا دكتور.", "تحية طيبة.")
_UNITS = ("ايام", "اسابيع", "شهور")
_NEUTRAL_SYMPTOMS = ("صداع", "غثيان", "دوخة", "ارهاق", "ارق", "الم")
_CLOSERS = ("ايه العلاج المناسب؟", "محتاج نصيحتكم.", "هل لازم اروح للمستشفى؟", "شكرا جزيلا.")
_PII_SENTENCES = (
    "رقمي 01012345678 للتواصل.",
    "ممكن ترد عليا علي waiting.patient@example.com من فضلك.",
    "قريت عن الاعراض دي علي www.tebfacts.example/post/123 بس مش متأكد.",
)

TYPE_WEIGHTS = (0.45, 0.30, 0.25)
SEVERITY_WEIGHTS = (0.60, 0.40)


def generate_synthetic_corpus(n: int = 200, seed: int = 2024,
                              ) -> tuple[list[ComplaintRecord], CorpusManifest]:
    rng = np.random.default_rng(seed)
    records: list[ComplaintRecord] = []
    for i in range(n):
        ctype = str(rng.choice(TYPE_CLASSES, p=TYPE_WEIGHTS))
        severity = str(rng.choice(SEVERITY_CLASSES, p=SEVERITY_WEIGHTS))
        type_marker = str(rng.choice(TYPE_MARKERS[ctype]))
        severity_marker = str(rng.choice(SEVERITY_MARKERS[severity]))
        age = int(rng.integers(18, 81)) if rng.random() > 0.15 else None
        gender = str(rng.choice(("male", "female", "unspecified"), p=(0.45, 0.45, 0.10)))

        sentences = [str(rng.choice(_OPENERS))]
        age_part = f"عمري {age} سنة و" if age is not None else ""
        duration = int(rng.integers(2, 10))
        unit = str(rng.choice(_UNITS))
        sentences.append(f"انا {age_part}عندي {type_marker} {severity_marker} "
                         f"من {duration} {unit}.")
        for symptom in rng.choice(_NEUTRAL_SYMPTOMS, size=int(rng.integers(0, 3)),
                                  replace=False):
            sentences.append(f"وكمان بحس ب {symptom} من وقت للتاني.")
        if rng.random() < 0.12:
            sentences.append(str(rng.choice(_PII_SENTENCES)))
        sentences.append(str(rng.choice(_CLOSERS)))

        rng.random()  # drew a diagnosis label once; kept so every later record stays the same
        records.append(ComplaintRecord(
            id=f"syn{i:04d}", text=" ".join(sentences), age=age, gender=gender,
            labels=LabelSet(condition_type=ctype, severity=severity)))

    manifest = CorpusManifest(vocab={"type": list(TYPE_CLASSES),
                                     "severity": list(SEVERITY_CLASSES)},
                              record_count=len(records))
    return records, manifest


def write_synthetic_corpus(path: str, n: int = 200, seed: int = 2024) -> None:
    records, manifest = generate_synthetic_corpus(n=n, seed=seed)
    write_corpus(path, records, manifest)
