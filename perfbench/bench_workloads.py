"""The three workloads, each a closed loop of ``medcascade`` CLI stages.

One caller runs the stages in-process through ``medcascade.cli.main`` and
waits for each before starting the next.  Every pass starts from an empty
workdir, so caches are cold.  Inputs come only from the workload seed.

- ``grid_mock``: the paper's full chain on a 200-record corpus: ingest,
  preprocess on the mock backend, the four variants, a fine-tuned and a
  frozen toy-encoder cell per condition (2 epochs), report.  The gateway's
  rate limiter and the toy encoder take most of its time.
- ``bert_cell``: ingest, the normal variant, one fine-tuned and one frozen
  cell on a randomly initialised BERT-base-shape encoder (d_model 768, 12
  layers, 12 heads, d_ff 3072).  Encoder arithmetic only; no gateway calls.
- ``live_gateway``: ingest, then ``preprocess --backend openai`` against the
  localhost stub from a cold cache and again from the warm response cache.
  HTTP, retries, the limiter on a live backend, reprompts and the failure
  ledger; no encoder work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field, replace

from medcascade import cli
from medcascade.corpus import label_counts, load_corpus, scrub_pii, write_corpus
from medcascade.gateway import ENV_URL, GatewayConfig
from medcascade.synthetic import generate_synthetic_corpus
from medcascade.variants import CONDITIONS

import bench_stub

# name -> unit of every end-to-end metric a workload can report.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "preprocess_records_per_s": "1/s", "preprocess_warm_records_per_s": "1/s",
    "train_examples_per_s": "1/s", "frozen_cell_s": "s",
    "failed_frac": "fraction", "test_acc_avg": "fraction", "final_train_loss": "nats",
}

BERT_BASE = {"d_model": 768, "n_layers": 12, "n_heads": 12, "d_ff": 3072}


@dataclass
class Call:
    argv: list[str]
    rc: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Setup:
    config: str
    records: list
    stub: bench_stub.StubLLM | None = None
    stub_url: str = ""

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()


@dataclass
class PassResult:
    calls: list[Call]
    metrics: dict[str, float]          # end-to-end values of this pass
    ledger_entries: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    notes: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.seconds for c in self.calls)


class Runner:
    """Runs CLI stages in one workdir and times each call from outside."""

    def __init__(self, setup: Setup, workdir: str, tracer=None):
        self.setup = setup
        self.workdir = workdir
        self.tracer = tracer
        self.calls: list[Call] = []

    def __call__(self, stage: str, *argv: str, condition: str | None = None) -> Call:
        argv = [*argv, "--config", self.setup.config, "--workdir", self.workdir]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open(f"cli.{stage}", condition=condition) if self.tracer else None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        seconds = time.perf_counter() - started
        if self.tracer:
            self.tracer.close(span)
        call = Call(argv, rc, seconds, out.getvalue(), err.getvalue())
        self.calls.append(call)
        return call

    def problems(self) -> list[str]:
        return [f"`{' '.join(c.argv[:3])}` exited {c.rc}: {c.stderr.strip()[:200]}"
                for c in self.calls if c.rc != 0]


# -- shared helpers ----------------------------------------------------------------

def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _sha256_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode("utf-8"))
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def balanced_corpus(per_class: int, seed: int):
    """The first ``per_class`` records of each Type class from the seeded
    200-record corpus, so every seed gives the ingest split at least three
    records per class."""
    records, manifest = generate_synthetic_corpus(200, seed)
    picked, taken = [], {}
    for r in records:
        cls = r.labels.condition_type
        if taken.get(cls, 0) < per_class:
            picked.append(r)
            taken[cls] = taken.get(cls, 0) + 1
    return picked, replace(manifest, record_count=len(picked))


def _write_inputs(directory: str, records, manifest, config: dict) -> Setup:
    os.makedirs(directory, exist_ok=True)
    corpus = os.path.join(directory, "corpus.jsonl")
    write_corpus(corpus, records, manifest)
    config_path = os.path.join(directory, "config.json")
    _write_json(config_path, {"corpus": corpus, **config})
    return Setup(config_path, records)


def _ledger(workdir: str) -> list[dict]:
    path = os.path.join(workdir, "bundles", "failures.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _split_size(workdir: str, part: str) -> int:
    records, _ = load_corpus(os.path.join(workdir, "splits", f"{part}.jsonl"))
    return len(records)


def _cell_dir(workdir: str, condition: str, arm: str) -> str:
    return os.path.join(workdir, "runs", f"toy__{condition}__{arm}")


def _check_cell(cell: str, n_test: int) -> list[str]:
    """A cell's scores must be what its own prediction dump gives."""
    with open(os.path.join(cell, "scores.json"), encoding="utf-8") as fh:
        tasks = json.load(fh)["tasks"]
    hits: dict[str, list[bool]] = {}
    with open(os.path.join(cell, "predictions.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            hits.setdefault(row["task"], []).append(row["pred"] == row["gold"])
    problems = []
    if sorted(hits) != sorted(tasks):
        problems.append(f"{cell}: predictions cover {sorted(hits)}, scores {sorted(tasks)}")
    for task, scores in tasks.items():
        got = hits.get(task, [])
        confusion = scores["confusion"]
        diagonal = sum(confusion[i][i] for i in range(len(confusion)))
        if not (len(got) == scores["n"] == n_test == sum(map(sum, confusion))
                and diagonal == sum(got) and scores["accuracy"] == sum(got) / n_test):
            problems.append(f"{cell}: {task} scores (accuracy {scores['accuracy']}, n "
                            f"{scores['n']}) disagree with its {len(got)} predictions")
    return problems


def _train_cells(run: Runner, workdir: str, conditions, epochs: int, result_notes: dict):
    """Fine-tuned and frozen cell per condition; returns e2e training metrics.

    Every cell's scores must match its prediction dump, and every fine-tuned
    cell must log one finite train loss per epoch.  Whether the loss falls
    at these epoch counts depends on the seed, so it is only noted.
    """
    ft, frozen = [], []
    for condition in conditions:
        ft.append(run("train_ft", "train", "--condition", condition, condition=condition))
        frozen.append(run("train_frozen", "train", "--condition", condition, "--no-finetune",
                          condition=condition))
    if any(c.rc != 0 for c in run.calls):
        return {}, []
    n_train = _split_size(workdir, "train")
    accs, losses, problems, beats, fell = [], [], [], 0, 0
    test, _ = load_corpus(os.path.join(workdir, "splits", "test.jsonl"))
    majority = max(label_counts(test, "type").values()) / len(test)
    for condition in conditions:
        for arm in ("finetuned", "frozen"):
            problems += _check_cell(_cell_dir(workdir, condition, arm), len(test))
        cell = _cell_dir(workdir, condition, "finetuned")
        with open(os.path.join(cell, "scores.json"), encoding="utf-8") as fh:
            tasks = json.load(fh)["tasks"]
        accs.append((tasks["type"]["accuracy"] + tasks["severity"]["accuracy"]) / 2)
        beats += tasks["type"]["accuracy"] > majority
        with open(os.path.join(cell, "trainlog.csv"), encoding="utf-8") as fh:
            rows = [float(r["train_loss"]) for r in csv.DictReader(fh)]
        if len(rows) != epochs or not all(math.isfinite(x) for x in rows):
            problems.append(f"{condition} fine-tuned train log {rows}, expected {epochs} "
                            f"finite losses")
            continue
        losses.append(rows[-1])
        fell += rows[-1] < rows[0]
    result_notes.update(type_majority_baseline=majority, type_beats_majority=beats,
                        train_loss_fell=fell, fine_tuned_cells=len(conditions))
    if problems:
        return {}, problems
    metrics = {
        "train_examples_per_s": len(conditions) * n_train * epochs / sum(c.seconds for c in ft),
        "frozen_cell_s": sum(c.seconds for c in frozen),
        "test_acc_avg": sum(accs) / len(accs),
        "final_train_loss": sum(losses) / len(losses),
    }
    return metrics, problems


def _failed_frac(run: Runner, ledger_entries: int, preprocessed_records: int) -> float:
    frac = sum(c.rc != 0 for c in run.calls) / len(run.calls)
    if preprocessed_records:
        frac += ledger_entries / (preprocessed_records * 3)
    return frac


# -- workloads -----------------------------------------------------------------------

class GridMock:
    name = "grid_mock"
    records = 200
    epochs = 2

    def setup(self, directory: str, seed: int) -> Setup:
        records, manifest = generate_synthetic_corpus(self.records, seed)
        return _write_inputs(directory, records, manifest, {"train": {"epochs": self.epochs}})

    def run_pass(self, setup: Setup, workdir: str, tracer=None) -> PassResult:
        run = Runner(setup, workdir, tracer)
        run("ingest", "ingest")
        pre = run("preprocess", "preprocess", "--backend", "mock")
        run("variants", "variants")
        result = PassResult(run.calls, {})
        if run.problems():
            result.problems = run.problems()
            return result
        train_metrics, problems = _train_cells(run, workdir, CONDITIONS, self.epochs, result.notes)
        run("report", "report")
        result.problems = run.problems() + problems
        if result.problems:
            return result
        report = os.path.join(workdir, "reports", "report.json")
        with open(report, encoding="utf-8") as fh:
            cells = len(json.load(fh)["cells"])
        if cells != 2 * len(CONDITIONS):
            result.problems = [f"report.json has {cells} cells, expected {2 * len(CONDITIONS)}"]
            return result
        result.ledger_entries = len(_ledger(workdir))
        result.metrics = {
            "preprocess_records_per_s": len(setup.records) / pre.seconds,
            **train_metrics,
            "failed_frac": _failed_frac(run, result.ledger_entries, len(setup.records)),
        }
        result.digest = _sha256_files([report])
        return result


class BertCell:
    name = "bert_cell"
    per_class = 6          # 18 records: 12 train / 3 val / 3 test
    epochs = 1
    shape = BERT_BASE

    def setup(self, directory: str, seed: int) -> Setup:
        records, manifest = balanced_corpus(self.per_class, seed)
        return _write_inputs(directory, records, manifest,
                             {"train": {"epochs": self.epochs}, "model": {"toy": self.shape}})

    def run_pass(self, setup: Setup, workdir: str, tracer=None) -> PassResult:
        run = Runner(setup, workdir, tracer)
        run("ingest", "ingest")
        run("variants", "variants", "--condition", "normal")
        result = PassResult(run.calls, {})
        if run.problems():
            result.problems = run.problems()
            return result
        train_metrics, problems = _train_cells(run, workdir, ("normal",), self.epochs,
                                               result.notes)
        result.problems = run.problems() + problems
        if result.problems:
            return result
        result.metrics = {**train_metrics, "failed_frac": _failed_frac(run, 0, 0)}
        result.digest = _sha256_files([
            os.path.join(_cell_dir(workdir, "normal", arm), name)
            for arm in ("finetuned", "frozen") for name in ("scores.json", "predictions.jsonl")
        ] + [os.path.join(_cell_dir(workdir, "normal", "finetuned"), "trainlog.csv")])
        return result


_CALLS = re.compile(r"\((\d+) gateway calls, (\d+) cache hits\)")


class LiveGateway:
    name = "live_gateway"
    per_class = 10         # 30 records
    # A chosen figure, not a measured one: 2.5 times the default limiter's
    # 20 ms token period, so a sequential cold pass waits on the backend and
    # on retry backoff, not on the limiter.  The gateway keeps its default
    # retry policy (0.5 s first backoff).
    latency_s = 0.05
    gateway = {"backend": "openai", "model": "stub"}
    failures = {"flaky": 3, "garbled_once": 2, "garbled": 2}

    def setup(self, directory: str, seed: int) -> Setup:
        records, manifest = balanced_corpus(self.per_class, seed)
        setup = _write_inputs(directory, records, manifest, {"gateway": self.gateway})
        texts = [scrub_pii(r.text).strip() for r in records]
        plan = bench_stub.pick_failures(texts, seed, self.failures)
        setup.stub = bench_stub.StubLLM(texts, plan, self.latency_s)
        setup.stub_url = setup.stub.start()
        return setup

    def run_pass(self, setup: Setup, workdir: str, tracer=None) -> PassResult:
        stub = setup.stub
        stub.reset()
        previous = os.environ.get(ENV_URL)
        os.environ[ENV_URL] = setup.stub_url
        try:
            run = Runner(setup, workdir, tracer)
            run("ingest", "ingest")
            cold = run("preprocess", "preprocess", "--backend", "openai")
            cold_requests, cold_503 = stub.counters.requests, stub.counters.status_503
            cold_ledger = _ledger(workdir)
            bundles = os.path.join(workdir, "bundles")
            cold_digest = _bundles_digest(bundles) if cold.rc == 0 else ""
            # the rerun would short-circuit as "up to date" while bundles and
            # their state file exist; the response cache stays
            shutil.rmtree(bundles, ignore_errors=True)
            warm = run("preprocess", "preprocess", "--backend", "openai")
        finally:
            if previous is None:
                os.environ.pop(ENV_URL, None)
            else:
                os.environ[ENV_URL] = previous

        result = PassResult(run.calls, {})
        result.problems = run.problems()
        if result.problems:
            return result
        result.problems = self._check(setup, cold, warm, cold_requests, cold_503, cold_ledger,
                                      cold_digest, _bundles_digest(bundles), _ledger(workdir))
        n = len(setup.records)
        result.ledger_entries = len(cold_ledger)
        result.metrics = {
            "preprocess_records_per_s": n / cold.seconds,
            "preprocess_warm_records_per_s": n / warm.seconds,
            "failed_frac": _failed_frac(run, result.ledger_entries, n),
        }
        result.digest = cold_digest
        result.notes = {"stub_requests": cold_requests, "stub_503": stub.counters.status_503,
                        "stub_garbled": stub.counters.garbled}
        return result

    def _check(self, setup, cold, warm, cold_requests, cold_503, cold_ledger, cold_digest,
               warm_digest, warm_ledger) -> list[str]:
        stub, problems = setup.stub, []
        plan = stub.failures
        kinds = list(plan.values())
        # three prompts per record; a fatal one is tried 1 + max_retries times
        # in each pass, since failed completions are not cached
        fatal_503 = 3 * (1 + GatewayConfig().max_retries) * kinds.count("fatal")
        warm_requests = stub.counters.requests - cold_requests
        cold_calls, warm_calls = (_CALLS.search(c.stdout) for c in (cold, warm))
        if cold_calls is None or int(cold_calls.group(1)) != cold_requests:
            problems.append(f"cold pass reported {cold.stdout.strip()!r}, "
                            f"stub served {cold_requests} requests")
        if warm_calls is None or int(warm_calls.group(1)) != warm_requests \
                or warm_requests != fatal_503:
            problems.append(f"warm pass made {warm_requests} backend calls, expected "
                            f"{fatal_503}: {warm.stdout.strip()!r}")
        if stub.counters.unknown:
            problems.append(f"stub got {stub.counters.unknown} prompts for unknown records")
        expected_503 = 3 * kinds.count("flaky") + fatal_503
        if cold_503 != expected_503:
            problems.append(f"stub sent {cold_503} 503s, expected {expected_503}")
        expected_garbled = 2 * kinds.count("garbled") + kinds.count("garbled_once")
        if stub.counters.garbled != expected_garbled:
            problems.append(f"stub garbled {stub.counters.garbled} answers, "
                            f"expected {expected_garbled}")
        stages = {"garbled": ["ner"], "fatal": ["refine", "summarize", "ner"]}
        expected_ledger = sorted((r.id, stage) for r in setup.records
                                 for stage in stages.get(plan.get(scrub_pii(r.text).strip()), []))
        got = sorted((e["record_id"], e["stage"]) for e in cold_ledger)
        if got != expected_ledger:
            problems.append(f"ledger has {got}, expected {expected_ledger}")
        if warm_digest != cold_digest or warm_ledger != cold_ledger:
            problems.append("warm pass bundles or ledger differ from the cold pass")
        return problems


def _bundles_digest(directory: str) -> str:
    names = sorted(n for n in os.listdir(directory) if n.endswith((".json", ".jsonl")))
    return _sha256_files([os.path.join(directory, n) for n in names])


WORKLOADS = {w.name: w for w in (GridMock, BertCell, LiveGateway)}
