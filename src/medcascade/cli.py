"""The ``medcascade`` command: ingest -> preprocess -> variants -> train -> report.

Every subcommand is idempotent: its state sidecar, written last, records the
hash of its inputs and the hash of every file in the directories it writes.
A rerun short-circuits only when both still match, so a changed input or a
deleted, truncated or edited output redoes the stage (``preprocess`` from its
response cache).  All writes are atomic (temp + rename).  Exit codes: 0
success, 1 user error, 2 internal error; failures print one machine-parseable
``Category: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, replace

from . import __version__
from .atomic import read_json, write_atomic, write_json
from .config import PipelineConfig, load_config
from .corpus import (CorpusManifest, corpus_format, load_corpus, manifest_path_for,
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


# Every module of the package.  Their source is part of each stage's input
# hash, so any code change reruns every stage: no list of the modules that
# decide a stage's bytes can fall out of date.
SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")))


# -- shared helpers ------------------------------------------------------------

def _hash_inputs(files: list[str], *values) -> str:
    """Digest of the contents of ``files`` and the JSON form of ``values``.

    A value is hashed as itself even when it names a file.  A missing file
    hashes as absent; the stage that needs it reports it.
    """
    h = hashlib.sha256()
    for path in files:
        try:
            with open(path, "rb") as fh:  # streamed: a large file is never held whole
                h.update(hashlib.file_digest(fh, "sha256").digest())
        except FileNotFoundError:
            h.update(b"absent")
    h.update(b"\x00")
    for value in values:
        h.update(json.dumps(value, sort_keys=True, default=str).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _state(state_path: str, input_hash: str, out_dirs: list[str]) -> dict:
    """The input hash and a digest of the relative names and bytes of every
    file under ``out_dirs``, the state file itself left out."""
    base = os.path.dirname(state_path)
    files = sorted(os.path.join(root, name) for d in out_dirs
                   for root, _, names in os.walk(d) for name in names)
    files = [f for f in files if f != state_path]
    return {"input_hash": input_hash,
            "outputs": _hash_inputs(files, [os.path.relpath(f, base) for f in files])}


def _up_to_date(state_path: str, input_hash: str, out_dirs: list[str]) -> bool:
    try:
        return read_json(state_path) == _state(state_path, input_hash, out_dirs)
    except (OSError, CorruptArtifact):  # missing or unreadable state: stale
        return False


def _write_state(state_path: str, input_hash: str, out_dirs: list[str]) -> None:
    write_json(state_path, _state(state_path, input_hash, out_dirs))


def _require(path: str, produced_by: str) -> str:
    if not os.path.exists(path):
        raise MissingUpstreamArtifact(f"{path} not found; run `medcascade {produced_by}` first")
    return path


def _preprocess_state(cfg: PipelineConfig) -> str:
    # beside the bundle directory, not in it: the bundle and ledger logs there
    # do not depend on the live url, and this state does
    return os.path.join(cfg.workdir, ".preprocess.state.json")


def _split_path(cfg: PipelineConfig, part: str) -> str:
    return os.path.join(cfg.splits_dir(), f"{part}.jsonl")


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


# -- subcommands ---------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args) -> int:
    if not os.path.exists(cfg.corpus):
        raise MissingUpstreamArtifact(f"corpus {cfg.corpus} not found")
    split_cfg = {"ratios": list(cfg.split.ratios), "seed": cfg.split.seed}
    input_hash = _hash_inputs([cfg.corpus, manifest_path_for(cfg.corpus), *SOURCES],
                              split_cfg, corpus_format(cfg.corpus))
    state = os.path.join(cfg.splits_dir(), ".state.json")
    if _up_to_date(state, input_hash, [cfg.splits_dir()]):
        print("ingest: up to date")
        return 0

    records, manifest = load_corpus(cfg.corpus)
    records = scrub_records(records)
    parts = stratified_split(records, cfg.split.ratios, cfg.split.seed)
    for part_name, part_records in zip(SPLITS, parts):
        part_manifest = CorpusManifest(
            vocab=manifest.vocab, record_count=len(part_records),
            split={**split_cfg, "part": part_name})
        write_corpus(_split_path(cfg, part_name), part_records, part_manifest)
    _write_state(state, input_hash, [cfg.splits_dir()])
    sizes = "/".join(str(len(p)) for p in parts)
    print(f"ingest: {len(records)} records scrubbed and split {sizes} "
          f"into {cfg.splits_dir()}")
    return 0


def cmd_preprocess(cfg: PipelineConfig, args) -> int:
    split_paths = [_require(_split_path(cfg, part), "ingest") for part in SPLITS]
    gw = build_gateway(replace(cfg.gateway, cache_dir=cfg.cache_dir()))
    # the scope holds a live backend's url and model, the mock's lexicon
    input_hash = _hash_inputs([*split_paths, *SOURCES], cfg.gateway.backend,
                              gw.backend.scope, template_hashes("sentinel"),
                              template_hashes("instruct"))
    state = _preprocess_state(cfg)
    if _up_to_date(state, input_hash, [cfg.bundles_dir()]):
        print("preprocess: up to date (0 gateway calls)")
        return 0

    records = [record for path in split_paths for record in load_corpus(path)[0]]
    store = BundleStore(cfg.bundles_dir())
    bundles = run_bundle(records, gw, store)
    _write_state(state, input_hash, [cfg.bundles_dir()])
    print(f"preprocess: {len(bundles)} bundles in {cfg.bundles_dir()} "
          f"({gw.backend_calls} gateway calls, {gw.cache_hits} cache hits)")
    return 0


def cmd_variants(cfg: PipelineConfig, args) -> int:
    conditions = tuple(dict.fromkeys(args.condition or CONDITIONS))
    split_paths = [_require(_split_path(cfg, part), "ingest") for part in SPLITS]
    store = BundleStore(cfg.bundles_dir())
    store_hash = None
    if any(c != "normal" for c in conditions):
        _require(_preprocess_state(cfg), "preprocess")
        store_hash = store.store_hash()
    stale = {}   # condition -> (state path, input hash); each condition has its own state
    for condition in conditions:
        input_hash = _hash_inputs([*split_paths, *SOURCES], condition,
                                  store_hash if condition != "normal" else None)
        state = os.path.join(cfg.variants_dir(), condition, ".state.json")
        if not _up_to_date(state, input_hash, [os.path.dirname(state)]):
            stale[condition] = (state, input_hash)
    if not stale:
        print("variants: up to date")
        return 0

    total = 0
    for part, path in zip(SPLITS, split_paths):
        part_records, _ = load_corpus(path)
        for condition in stale:
            variant = build_variant(part_records, store, condition)
            write_variant(variant, cfg.variants_dir(), part)
            total += len(variant)
    for state, input_hash in stale.values():
        _write_state(state, input_hash, [os.path.dirname(state)])
    print(f"variants: wrote {len(stale)} condition(s) x {len(SPLITS)} splits "
          f"({total} examples) into {cfg.variants_dir()}")
    return 0


def cmd_train(cfg: PipelineConfig, args) -> int:
    model_id = cfg.model.backend_id
    condition = args.condition
    fine_tuned = not args.no_finetune
    arm = "finetuned" if fine_tuned else "frozen"
    needed = SPLITS if fine_tuned else ("test",)
    variant_files = [_require(variant_paths(cfg.variants_dir(), condition, part)[0], "variants")
                     for part in needed]
    manifest_path = _require(manifest_path_for(_split_path(cfg, "train")), "ingest")
    vocab = read_manifest(manifest_path).vocab

    cell = f"{_slug(model_id)}__{condition}__{arm}"
    cell_dir = os.path.join(cfg.runs_dir(), cell)
    cfg_json = cfg.to_json()
    relevant_cfg = {"adapter": cfg_json["adapter"], "train": cfg_json["train"],
                    "model": cfg_json["model"], "arm": arm}
    # an export is hashed once per invocation: the same digests key its stored base
    digests = export_digests(cfg.model.weights_dir) if cfg.model.weights_dir else None
    input_hash = _hash_inputs([*variant_files, manifest_path, *SOURCES],
                              relevant_cfg, digests)
    state = os.path.join(cell_dir, ".state.json")
    if _up_to_date(state, input_hash, [cell_dir]):
        print(f"train[{cell}]: up to date")
        return 0

    encoder = resolve_encoder(model_id, weights_dir=cfg.model.weights_dir, seed=cfg.model.seed,
                              store_dir=cfg.encoders_dir(), digests=digests, **cfg.model.toy)
    model = MultiTaskModel.build(encoder, vocab, head_seed=cfg.model.head_seed)
    result = None
    if fine_tuned:
        adapters = encoder.build_adapters(cfg.adapter.rank, cfg.adapter.alpha,
                                          cfg.adapter.dropout, cfg.adapter.seed,
                                          patterns=cfg.adapter.targets)
        encoder.attach_adapters(adapters)
        train_variant = load_variant(cfg.variants_dir(), condition, "train")
        val_variant = load_variant(cfg.variants_dir(), condition, "val")
        result = train(model, train_variant, val_variant, cfg.train)
        model.restore(result.best_params)
        write_atomic(os.path.join(cell_dir, "trainlog.csv"), result.log.to_csv())

    test_variant = load_variant(cfg.variants_dir(), condition, "test")
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
        "model_id": model_id, "condition": condition, "arm": arm, "input_hash": input_hash,
        "steps_taken": result.steps_taken if result else 0,
        "best_epoch": result.best_epoch if result else None,
        "trainable_parameters": model.trainable_count(),
    })
    _write_state(state, input_hash, [cell_dir])
    summary = ", ".join(f"{t} {s.accuracy:.3f}" for t, s in sorted(scores.items()))
    print(f"train[{cell}]: test accuracy {summary}")
    return 0


def cmd_report(cfg: PipelineConfig, args) -> int:
    runs_dir = cfg.runs_dir()
    _require(runs_dir, "train")
    scores_paths = [path for path in (os.path.join(runs_dir, entry, "scores.json")
                                      for entry in sorted(os.listdir(runs_dir)))
                    if os.path.isfile(path)]
    if not scores_paths:
        raise MissingUpstreamArtifact(f"no scores.json under {runs_dir}; run `medcascade train`")
    input_hash = _hash_inputs([*scores_paths, *SOURCES])
    state = os.path.join(cfg.reports_dir(), ".state.json")
    if _up_to_date(state, input_hash, [cfg.reports_dir()]):
        print("report: up to date")
        return 0

    def cell(data: dict) -> ReportCell:
        return ReportCell(model_id=data["model_id"], condition=data["condition"],
                          fine_tuned=data["fine_tuned"],
                          tasks={t: TaskScores(**s) for t, s in data["tasks"].items()})

    cells = [read_json(path, build=cell) for path in scores_paths]
    json_path, md_path = render_report(cells, cfg.reports_dir())
    _write_state(state, input_hash, [cfg.reports_dir()])
    print(f"report: {len(cells)} cell(s) -> {json_path}, {md_path}")
    return 0


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

    def common(p):
        p.add_argument("--config", help="pipeline config JSON file")
        p.add_argument("--workdir", help="override workdir")
        p.add_argument("--corpus", help="override corpus path")

    p = sub.add_parser("ingest", help="load, scrub, and split the corpus")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="run the three LLM layers over all records")
    common(p)
    p.add_argument("--backend", choices=("mock", "openai", "llama"),
                   help="overrides gateway.backend")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("variants", help="build evaluation-condition datasets")
    common(p)
    p.add_argument("--condition", action="append", choices=CONDITIONS,
                   help="build only this condition (repeatable; default all)")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("train", help="train and evaluate one (model, condition) cell")
    common(p)
    p.add_argument("--model", help="encoder backend id; overrides model.backend_id")
    p.add_argument("--condition", required=True, choices=CONDITIONS)
    p.add_argument("--no-finetune", action="store_true",
                   help="evaluate the frozen encoder with random heads instead of training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="aggregate run outputs into the report grid")
    common(p)
    p.set_defaults(func=cmd_report)
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
    except Exception as e:  # pragma: no cover - internal errors
        print(f"InternalError: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
