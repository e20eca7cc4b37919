"""Spans recorded from outside the program, by wrapping its public functions.

``install`` replaces each function or method named in ``PATCHES`` with a
wrapper that records a span and returns the original's result unchanged;
``uninstall`` puts the originals back, so untraced passes run unmodified
code.  Spans stay in memory (``Tracer.spans``) until the benchmark writes
them out at the end.

A span is ``[name, start, end, parent, run_id, tags]``: ``parent`` is the
index of the enclosing span, or -1, and ``tags`` holds counts taken at the
boundary (tokens passed in, a cache hit, the exception that escaped).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np
from medcascade.variants import CONDITIONS


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, **tags) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, tags])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, **tags) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5].update(tags)


# -- what gets wrapped --------------------------------------------------------------

def _forward_name(args, kwargs):
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return "encoder.forward_train" if training else "encoder.forward_eval"


def _forward_tags(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    mask = args[2] if len(args) > 2 else kwargs["mask"]
    return {"computed": int(np.size(ids)), "real": float(np.sum(mask))}


# (target, span name or namer, tagger).  A target is "module:attribute" or
# "module:Class.method", patched where the caller looks it up: ``cli`` imports
# most stage functions by name, so those are patched in ``medcascade.cli``.
PATCHES = [
    ("medcascade.cli:load_corpus", "corpus.load", None),
    ("medcascade.cli:stratified_split", "corpus.split", None),
    ("medcascade.corpus:scrub_pii", "corpus.scrub", None),
    ("medcascade.preprocess:scrub_pii", "corpus.scrub", None),
    ("medcascade.variants:scrub_pii", "corpus.scrub", None),
    ("medcascade.gateway:TokenBucket.acquire", "gateway.limiter", None),
    ("medcascade.gateway:Gateway.complete", "gateway.complete", None),
    ("medcascade.gateway:MockBackend.complete", "gateway.backend", None),
    ("medcascade.gateway:OpenAIChatBackend.complete", "gateway.backend", None),
    ("medcascade.gateway:LlamaServerBackend.complete", "gateway.backend", None),
    ("medcascade.gateway:ResponseCache.get", "gateway.cache_get",
     lambda a, k, r: {"hit": r is not None}),
    ("medcascade.gateway:ResponseCache.put", "gateway.cache_put", None),
    ("medcascade.cli:run_bundle", "preprocess.run_bundle",
     lambda a, k, r: {"records": len(r)}),
    ("medcascade.preprocess:refine", "preprocess.refine", None),
    ("medcascade.preprocess:summarize", "preprocess.summarize", None),
    ("medcascade.preprocess:extract_entities", "preprocess.ner", None),
    ("medcascade.preprocess:_ask", "preprocess.ask", None),
    ("medcascade.preprocess:BundleStore.save", "preprocess.bundle_save", None),
    ("medcascade.cli:build_variant", "variants.build",
     lambda a, k, r: {"empty_aux": r.provenance["empty_aux_count"]}),
    ("medcascade.cli:write_variant", "variants.write", None),
    ("medcascade.cli:load_variant", "variants.load", None),
    ("medcascade.cli:save_adapter_set", "lora.save", None),
    ("medcascade.cli:resolve_encoder", "encoder.init", None),
    ("medcascade.encoder:NumpyTransformerEncoder.forward", _forward_name, _forward_tags),
    ("medcascade.encoder:NumpyTransformerEncoder.backward_adapters", "encoder.backward", None),
    ("medcascade.encoder:gelu", "encoder.gelu", None),
    ("medcascade.encoder:gelu_grad", "encoder.gelu_grad", None),
    ("medcascade.cli:train", "trainer.train", None),
    ("medcascade.trainer:MultiTaskModel.encode_texts", "trainer.encode_texts", None),
    ("medcascade.trainer:weighted_loss_and_grad", "trainer.loss", None),
    ("medcascade.trainer:AdamW.step", "trainer.adamw", None),
    ("medcascade.trainer:predict", "trainer.predict", None),
    ("medcascade.evaluator:predict", "trainer.predict", None),
    ("medcascade.cli:evaluate", "evaluator.evaluate", None),
    ("medcascade.cli:prediction_dump", "evaluator.dump", None),
    ("medcascade.cli:render_report", "evaluator.render", None),
]


def _resolve(target: str):
    """(owner, attribute, raw value) for a patch target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _wrap(fn, tracer: Tracer, name, tagger):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            tracer.close(idx, error=type(e).__name__)
            raise
        tracer.close(idx, **(tagger(args, kwargs, result) if tagger else {}))
        return result
    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every patch target; returns what ``uninstall`` needs."""
    saved = []
    try:
        for target, name, tagger in PATCHES:
            owner, attr, raw = _resolve(target)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, tracer, name, tagger))
            else:
                wrapped = _wrap(raw, tracer, name, tagger)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, raw))
    except BaseException:
        uninstall(saved)
        raise
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)
    saved.clear()


# -- from spans to layer metrics ----------------------------------------------------

def write_spans(path: str, tracers: list[Tracer]) -> None:
    """One JSON line per span; ``id`` and ``parent`` number spans across tracers."""
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for i, (name, start, end, parent, run_id, tags) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": offset + i, "name": name, "start": start,
                                     "end": end, "run_id": run_id, "tags": tags,
                                     "parent": offset + parent if parent >= 0 else None},
                                    sort_keys=True) + "\n")
            offset += len(tracer.spans)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the part covered by child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s[0]] = totals.get(s[0], 0.0) + t
    return totals


def layer_metrics(spans: list[list], ledger_entries: int,
                  cli_metrics: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``overhead_frac`` is added later).

    ``cli_metrics`` names the ``cli.<stage>_s`` metrics to report; a stage
    the pass did not run reports 0.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for name, start, end, *_ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)

    def tagged(name, key):
        return [s[5].get(key) for s in spans if s[0] == name]

    # root (cli span) of every span, for the condition each forward ran under
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[3] < 0 else root[s[3]])
    tokens = {c: [0, 0.0] for c in CONDITIONS}
    for s, r in zip(spans, root):
        if s[0].startswith("encoder.forward_"):
            cond = spans[r][5].get("condition")
            if cond in tokens:
                tokens[cond][0] += s[5]["computed"]
                tokens[cond][1] += s[5]["real"]
    computed = sum(t[0] for t in tokens.values())
    real = sum(t[1] for t in tokens.values())

    # spans with a backend call below them: an ask served from the cache has none
    reached = set()
    for s in spans:
        if s[0] == "gateway.backend":
            p = s[3]
            while p >= 0 and p not in reached:
                reached.add(p)
                p = spans[p][3]
    # a reprompt is an ask after the first within one entity extraction;
    # count those sent to the backend
    first_ask, reprompts = set(), 0
    for i, s in enumerate(spans):
        if s[0] == "preprocess.ask" and s[3] >= 0 and spans[s[3]][0] == "preprocess.ner":
            if s[3] in first_ask:
                reprompts += i in reached
            first_ask.add(s[3])
    eval_predicts = sum(1 for s in spans if s[0] == "trainer.predict" and s[3] >= 0
                        and spans[s[3]][0] in ("evaluator.evaluate", "evaluator.dump"))
    cells = calls.get("cli.train_ft", 0) + calls.get("cli.train_frozen", 0)

    steps, fwd_start = [], None
    for name, start, end, *_ in spans:
        if name == "encoder.forward_train":
            fwd_start = start
        elif name == "trainer.adamw" and fwd_start is not None:
            steps.append((end - fwd_start) * 1e3)
            fwd_start = None

    completes = calls.get("gateway.complete", 0)
    complete_ms = [d * 1e3 for d in durations.get("gateway.complete", [])]
    hits = sum(1 for h in tagged("gateway.cache_get", "hit") if h)
    m = {name: total.get(name[:-len("_s")], 0.0) for name in cli_metrics}
    m.update({
        "corpus.load_s": total.get("corpus.load", 0.0),
        "corpus.scrub_s": total.get("corpus.scrub", 0.0),
        "corpus.scrub_calls": calls.get("corpus.scrub", 0),
        "corpus.split_s": total.get("corpus.split", 0.0),
        "gateway.limiter_wait_s": total.get("gateway.limiter", 0.0),
        "gateway.backend_s": total.get("gateway.backend", 0.0),
        "gateway.backend_calls": calls.get("gateway.backend", 0),
        "gateway.retries": tagged("gateway.backend", "error").count("TransientBackendError"),
        "gateway.failed": sum(1 for e in tagged("gateway.complete", "error") if e),
        "gateway.complete_ms_p50": _pct(complete_ms, 50),
        "gateway.complete_ms_p99": _pct(complete_ms, 99),
        "gateway.cache_hits": hits,
        "gateway.cache_hit_ratio": hits / completes if completes else 0.0,
        "gateway.cache_get_s": total.get("gateway.cache_get", 0.0),
        "gateway.cache_put_s": total.get("gateway.cache_put", 0.0),
        "preprocess.records": sum(tagged("preprocess.run_bundle", "records")),
        "preprocess.refine_s": total.get("preprocess.refine", 0.0),
        "preprocess.summarize_s": total.get("preprocess.summarize", 0.0),
        "preprocess.ner_s": total.get("preprocess.ner", 0.0),
        "preprocess.reprompts": reprompts,
        "preprocess.bundle_save_s": total.get("preprocess.bundle_save", 0.0),
        "preprocess.ledger_entries": ledger_entries,
        "variants.build_s": total.get("variants.build", 0.0),
        "variants.write_s": total.get("variants.write", 0.0),
        "variants.load_s": total.get("variants.load", 0.0),
        "variants.empty_aux": sum(tagged("variants.build", "empty_aux")),
        "lora.save_s": total.get("lora.save", 0.0),
        "encoder.init_s": total.get("encoder.init", 0.0),
        "encoder.forward_train_s": total.get("encoder.forward_train", 0.0),
        "encoder.backward_s": total.get("encoder.backward", 0.0),
        "encoder.forward_calls": calls.get("encoder.forward_train", 0)
                                 + calls.get("encoder.forward_eval", 0),
        "encoder.forward_eval_s": total.get("encoder.forward_eval", 0.0),
        "encoder.tokens_computed": computed,
        "encoder.tokens_real": real,
        "encoder.pad_frac": 1.0 - real / computed if computed else 0.0,
        "encoder.gelu_s": total.get("encoder.gelu", 0.0),
        "encoder.gelu_grad_s": total.get("encoder.gelu_grad", 0.0),
        "trainer.steps": calls.get("trainer.adamw", 0),
        "trainer.step_ms_p50": _pct(steps, 50),
        "trainer.step_ms_p90": _pct(steps, 90),
        "trainer.encode_texts_s": total.get("trainer.encode_texts", 0.0),
        "trainer.loss_s": total.get("trainer.loss", 0.0),
        "trainer.adamw_s": total.get("trainer.adamw", 0.0),
        "trainer.predict_calls": calls.get("trainer.predict", 0),
        "trainer.predict_s": total.get("trainer.predict", 0.0),
        "evaluator.evaluate_s": total.get("evaluator.evaluate", 0.0),
        "evaluator.dump_s": total.get("evaluator.dump", 0.0),
        "evaluator.predict_passes": eval_predicts / cells if cells else 0.0,
        "evaluator.render_s": total.get("evaluator.render", 0.0),
    })
    for cond, (c_computed, c_real) in tokens.items():
        m[f"encoder.pad_frac.{cond}"] = 1.0 - c_real / c_computed if c_computed else 0.0
    return m
