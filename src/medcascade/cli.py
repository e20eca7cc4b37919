"""The ``medcascade`` command: ingest -> preprocess -> variants -> train -> report.

Every stage, and each condition of ``variants`` and ``train``, runs through
``_stage``: its state sidecar, written after its outputs, maps each input
(``code <module>.py``, ``file <role>``, a config value) and each ``output
<path>`` to its sha256.  A rerun prints ``<label>: up to date`` only while all
still match; else it redoes the stage (``preprocess`` from its response cache)
and prints ``<label>:`` and what it did, or, for a ``preprocess`` with calls out
of retries, records no state.  ``train`` resolves its encoder once, at the
first stale cell.  All writes are atomic (temp + rename).
Exit codes: 0 success, 1 user error, 2 internal error; failures print one
machine-parseable ``Category: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys
from dataclasses import asdict, replace
from functools import cache, partial

from . import __version__
from .atomic import file_digest, json_line, read_json, text_digest, write_atomic, write_json
from .config import PipelineConfig, load_config
from .corpus import (TASKS, CorpusManifest, corpus_format, load_corpus, manifest_path_for,
                     read_manifest, scrub_records, stratified_split, write_corpus)
from .encoder import export_digests, resolve_encoder
from .errors import CorruptArtifact, MedcascadeError, MissingUpstreamArtifact, UserError
from .evaluator import ReportCell, TaskScores, evaluate, prediction_dump, render_report
from .gateway import build_gateway
from .lora import save_adapter_set
from .preprocess import BundleStore, run_bundle, template_hashes
from .trainer import MultiTaskModel, train
from .variants import CONDITIONS, build_variant, load_variant, variant_paths, write_variant

SPLITS = ("train", "val", "test")


# Every module of the package.  Each is a dependency of every stage, so any
# code change reruns every stage: no list of the modules that decide a
# stage's bytes can fall out of date.
SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")))


# -- shared helpers ------------------------------------------------------------

def _digest(value) -> str:
    """The sha256 of ``value``'s JSON form: a value is hashed as itself even
    when it names a file, and a live url is never stored in plain text."""
    return text_digest(json_line(value))


def _inputs(files: dict[str, str], **values) -> dict[str, str | None]:
    """The digests of every module, each file of ``files`` by role (None when
    absent: the stage that needs it reports it) and each value, by name."""
    named = {f"code {os.path.basename(path)}": file_digest(path) for path in SOURCES}
    named.update({f"file {role}": file_digest(path) for role, path in files.items()})
    named.update({name: _digest(value) for name, value in values.items()})
    return named


def _trace(state: str, inputs: dict, out_dir: str) -> dict:
    """``inputs`` and the digest of every file under ``out_dir``, named by
    its path from the state's directory; the state file itself left out."""
    base = os.path.dirname(state)
    outputs = (os.path.join(root, name) for root, _, names in os.walk(out_dir) for name in names)
    return {**inputs, **{f"output {os.path.relpath(path, base)}": file_digest(path)
                         for path in outputs if path != state}}


def _stale(state: str, inputs: dict, out_dir: str) -> list[str]:
    """The sorted names whose digests differ from those ``state`` records;
    ``["state"]`` when it is missing or not a readable JSON object."""
    try:
        stored = read_json(state, build=lambda data: {**data})
    except CorruptArtifact:
        return ["state"]
    current = _trace(state, inputs, out_dir)
    return sorted(name for name in stored.keys() | current.keys()
                  if stored.get(name) != current.get(name))   # None: absent either way


class _NotFinal(Exception):
    """``work``'s line, raised when a rerun may change its outputs: no state."""


def _stage(label: str, state: str, inputs: dict, out_dir: str, work) -> int:
    """Print ``label: up to date`` while ``state`` matches; else run ``work``,
    record the state and print ``label:`` and the line ``work`` returns."""
    line = "up to date"
    if _stale(state, inputs, out_dir):
        try:
            line = work()
            write_json(state, _trace(state, inputs, out_dir))
        except _NotFinal as e:
            line = str(e)
    print(f"{label}: {line}")
    return 0


def _require(path: str, produced_by: str) -> str:
    if not os.path.exists(path):
        raise MissingUpstreamArtifact(f"{path} not found; run `medcascade {produced_by}` first")
    return path


def _split_path(cfg: PipelineConfig, part: str) -> str:
    return os.path.join(cfg.splits_dir(), f"{part}.jsonl")


def _conditions(args) -> tuple[str, ...]:
    """The ``--condition`` values, each once in the order given; all by default."""
    return tuple(dict.fromkeys(args.condition or CONDITIONS))


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


# -- subcommands ---------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args) -> int:
    if not os.path.exists(cfg.corpus):
        raise MissingUpstreamArtifact(f"corpus {cfg.corpus} not found")
    split_cfg = cfg.to_json()["split"]
    inputs = _inputs({"corpus": cfg.corpus, "manifest": manifest_path_for(cfg.corpus)},
                     split=split_cfg, format=corpus_format(cfg.corpus))

    def work() -> str:
        records, manifest = load_corpus(cfg.corpus)
        records = scrub_records(records)
        parts = stratified_split(records, cfg.split.ratios, cfg.split.seed)
        for part_name, part_records in zip(SPLITS, parts):
            write_corpus(_split_path(cfg, part_name), part_records, CorpusManifest(
                vocab=manifest.vocab, split={**split_cfg, "part": part_name}))
        sizes = "/".join(str(len(p)) for p in parts)
        return f"{len(records)} records scrubbed and split {sizes} into {cfg.splits_dir()}"

    return _stage("ingest", os.path.join(cfg.splits_dir(), ".state.json"), inputs,
                  cfg.splits_dir(), work)


def cmd_preprocess(cfg: PipelineConfig, args) -> int:
    split_paths = [_require(_split_path(cfg, part), "ingest") for part in SPLITS]
    gw = build_gateway(replace(cfg.gateway, cache_dir=cfg.cache_dir()))
    # the scope holds a live backend's url and model, the mock's lexicon
    inputs = _inputs(dict(zip(SPLITS, split_paths)), backend=cfg.gateway.backend,
                     scope=gw.backend.scope, templates=template_hashes())

    def work() -> str:
        records = [record for path in split_paths for record in load_corpus(path)[0]]
        bundles = run_bundle(records, gw, BundleStore(cfg.bundles_dir()))
        line = (f"{len(bundles)} bundles in {cfg.bundles_dir()} "
                f"({gw.backend_calls} gateway calls, {gw.cache_hits} cache hits)")
        if not gw.retries_exhausted:
            return line
        print(f"preprocess: {gw.retries_exhausted} calls ran out of retries (RetriesExhausted in "
              f"{os.path.join(cfg.bundles_dir(), 'failures.jsonl')}); not up to date, so the "
              "next run asks them again", file=sys.stderr)
        raise _NotFinal(line)

    # beside the bundle directory, not in it: every file there is the same
    # for any live url, and this state, which hashes the url, is not
    return _stage("preprocess", os.path.join(cfg.workdir, ".preprocess.state.json"), inputs,
                  cfg.bundles_dir(), work)


def cmd_variants(cfg: PipelineConfig, args) -> int:
    conditions = _conditions(args)
    split_paths = [_require(_split_path(cfg, part), "ingest") for part in SPLITS]
    store = BundleStore(cfg.bundles_dir())
    if any(c != "normal" for c in conditions):
        _require(store.path, "preprocess")
    shared = _inputs(dict(zip(SPLITS, split_paths)))
    bundles = {"file bundles": file_digest(store.path)}
    splits = []   # each split's records: read once, when the first stale condition is built

    def work(condition: str, out_dir: str) -> str:
        if not splits:
            splits.extend(load_corpus(path)[0] for path in split_paths)
        variants = [build_variant(records, store, condition) for records in splits]
        for part, variant in zip(SPLITS, variants):
            write_variant(variant, cfg.variants_dir(), part)
        return f"{'/'.join(str(len(v)) for v in variants)} examples into {out_dir}"

    for condition in conditions:
        out_dir = os.path.join(cfg.variants_dir(), condition)
        inputs = {**shared, "condition": _digest(condition),
                  **(bundles if condition != "normal" else {})}
        _stage(f"variants[{condition}]", os.path.join(out_dir, ".state.json"), inputs, out_dir,
               partial(work, condition, out_dir))
    return 0


def cmd_train(cfg: PipelineConfig, args) -> int:
    model_id = cfg.model.backend_id
    fine_tuned = not args.no_finetune
    arm = "finetuned" if fine_tuned else "frozen"
    needed = SPLITS if fine_tuned else ("test",)
    # every selected condition's variants, before the first cell runs
    variant_files = {c: [_require(variant_paths(cfg.variants_dir(), c, part)[0], "variants")
                         for part in needed] for c in _conditions(args)}
    manifest_path = _require(manifest_path_for(_split_path(cfg, "train")), "ingest")
    vocab = read_manifest(manifest_path).vocab
    cfg_json = cfg.to_json()
    # an export is hashed once per invocation: the same digests key its stored base
    digests = export_digests(cfg.model.weights_dir) if cfg.model.weights_dir else None
    # resolved at the first stale cell, and shared by the later ones
    encoder = cache(lambda: resolve_encoder(
        model_id, weights_dir=cfg.model.weights_dir, seed=cfg.model.seed,
        store_dir=cfg.encoders_dir(), digests=digests, **cfg.model.toy))

    def work(condition: str, cell_dir: str, inputs: dict) -> str:
        model = MultiTaskModel.build(encoder(), vocab, head_seed=cfg.model.head_seed)
        result = None
        if fine_tuned:   # the cell's own adapters, seeded as in a row of one
            model.encoder.attach_adapters(model.encoder.build_adapters(
                cfg.adapter.rank, cfg.adapter.alpha, cfg.adapter.dropout, cfg.adapter.seed,
                patterns=cfg.adapter.targets))
            train_variant = load_variant(cfg.variants_dir(), condition, "train", vocab)
            val_variant = load_variant(cfg.variants_dir(), condition, "val", vocab)
            result = train(model, train_variant, val_variant, cfg.train)
            model.restore(result.best_params)
            write_atomic(os.path.join(cell_dir, "trainlog.csv"), result.log.to_csv())

        test_variant = load_variant(cfg.variants_dir(), condition, "test", vocab)
        scores, preds = evaluate(model, test_variant)

        save_adapter_set(os.path.join(cell_dir, "checkpoint.npz"), model.encoder.adapters,
                         heads=model.heads,
                         extra_meta={"model_id": model_id, "condition": condition, "arm": arm})
        write_atomic(os.path.join(cell_dir, "predictions.jsonl"),
                     prediction_dump(model, test_variant, preds))
        write_json(os.path.join(cell_dir, "scores.json"), {
            "model_id": model_id, "condition": condition, "fine_tuned": fine_tuned,
            "best_epoch": result.best_epoch if result else None,
            "tasks": {t: asdict(s) for t, s in scores.items()},
        })
        write_json(os.path.join(cell_dir, "manifest.json"), {
            "pipeline_config": cfg_json,
            "model_id": model_id, "condition": condition, "arm": arm, "inputs": inputs,
            "steps_taken": result.steps_taken if result else 0,
            "best_epoch": result.best_epoch if result else None,
            "trainable_parameters": model.trainable_count(),
        })
        summary = ", ".join(f"{t} {s.accuracy:.3f}" for t, s in sorted(scores.items()))
        return f"test accuracy {summary}"

    for condition, files in variant_files.items():
        cell = f"{_slug(model_id)}__{condition}__{arm}"
        cell_dir = os.path.join(cfg.runs_dir(), cell)
        inputs = _inputs(dict(zip(needed, files), manifest=manifest_path),
                         adapter=cfg_json["adapter"], train=cfg_json["train"],
                         model=cfg_json["model"], arm=arm, export=digests)
        _stage(f"train[{cell}]", os.path.join(cell_dir, ".state.json"), inputs, cell_dir,
               partial(work, condition, cell_dir, inputs))
    return 0


def cmd_report(cfg: PipelineConfig, args) -> int:
    runs_dir = cfg.runs_dir()
    _require(runs_dir, "train")
    scores_paths = {entry: path for entry in sorted(os.listdir(runs_dir))
                    if os.path.isfile(path := os.path.join(runs_dir, entry, "scores.json"))}
    if not scores_paths:
        raise MissingUpstreamArtifact(f"no scores.json under {runs_dir}; run `medcascade train`")

    def cell(data: dict) -> ReportCell:
        if not (isinstance(data["model_id"], str) and isinstance(data["condition"], str)
                and isinstance(data["fine_tuned"], bool)):
            raise TypeError("model_id and condition must be strings and fine_tuned a bool")
        tasks = {t: TaskScores(**data["tasks"][t]) for t in TASKS}
        if not all(type(s.accuracy) in (int, float) and 0 <= s.accuracy <= 1
                   for s in tasks.values()):
            raise TypeError("each task's accuracy must be a number in [0, 1]")
        return ReportCell(model_id=data["model_id"], condition=data["condition"],
                          fine_tuned=data["fine_tuned"], tasks=tasks)

    def work() -> str:
        cells = [read_json(path, build=cell) for path in scores_paths.values()]
        json_path, md_path = render_report(cells, cfg.reports_dir())
        return f"{len(cells)} cell(s) -> {json_path}, {md_path}"

    return _stage("report", os.path.join(cfg.reports_dir(), ".state.json"),
                  _inputs(scores_paths), cfg.reports_dir(), work)


# -- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage mistakes are user errors: exit 1, single parseable line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"UsageError: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="medcascade",
        description="LLM-preprocessed Arabic complaint classification pipeline")
    parser.add_argument("--version", action="version", version=f"medcascade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, func, help: str, row: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="pipeline config JSON file")
        p.add_argument("--workdir", help="override workdir")
        p.add_argument("--corpus", help="override corpus path")
        if row:   # the stage runs once per condition (see _conditions)
            p.add_argument("--condition", action="append", choices=CONDITIONS,
                           help="only this condition (repeatable; default all)")
        p.set_defaults(func=func)
        return p

    stage("ingest", cmd_ingest, "load, scrub, and split the corpus")
    p = stage("preprocess", cmd_preprocess, "run the three LLM layers over all records")
    p.add_argument("--backend", choices=("mock", "openai", "llama"),
                   help="overrides gateway.backend")
    stage("variants", cmd_variants, "build evaluation-condition datasets", row=True)
    p = stage("train", cmd_train, "train and evaluate one cell per condition", row=True)
    p.add_argument("--model", help="encoder backend id; overrides model.backend_id")
    p.add_argument("--no-finetune", action="store_true",
                   help="evaluate the frozen encoder with random heads instead of training")
    stage("report", cmd_report, "aggregate run outputs into the report grid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each flag overrides one config key, so stages read (and manifests record) cfg alone
    flags = {"workdir": "workdir", "corpus": "corpus", "backend": "gateway.backend",
             "model": "model.backend_id"}
    overrides = {key: getattr(args, flag) for flag, key in flags.items()
                 if getattr(args, flag, None)}
    try:
        cfg = load_config(args.config, overrides)
        return args.func(cfg, args)
    except UserError as e:
        print(f"{e.category}: {e}", file=sys.stderr)
        return 1
    except MedcascadeError as e:
        print(f"{e.category}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a bug: an internal error
        print(f"InternalError: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
