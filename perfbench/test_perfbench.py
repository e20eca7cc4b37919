"""Fast checks of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_stub  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402


class TinyGrid(bench_workloads.GridMock):
    name = "tiny_grid"
    records = 30
    epochs = 2


class TinyBert(bench_workloads.BertCell):
    name = "tiny_bert"
    per_class = 3
    shape = {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32}


class TinyLive(bench_workloads.LiveGateway):
    name = "tiny_live"
    per_class = 3
    latency_s = 0.0
    gateway = {**bench_workloads.LiveGateway.gateway, "backoff_base": 0.0}
    failures = {"flaky": 1, "garbled_once": 1, "garbled": 1}


class FatalLive(TinyLive):
    name = "fatal_live"
    failures = {"fatal": 1}


TINY = {w.name: w for w in (TinyGrid, TinyBert, TinyLive, FatalLive)}
SEED = 3


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench_workloads, "WORKLOADS", TINY)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["tiny_grid", "tiny_bert", "tiny_live"])
def test_every_declared_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, out = _run(capsys, workload, trace)
        assert result["correct"], out
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared(kind)
        assert all(isinstance(m["value"], float) or isinstance(m["value"], int)
                   for m in result["metrics"].values())


def test_fatal_failure_counts_in_failed_frac(tiny, capsys):
    result, out = _run(capsys, "fatal_live", 0)
    assert result["correct"], out
    with open(os.path.join(ROOT, run.WORK, "results", f"fatal_live-s{SEED}-t0.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)["end_to_end"]
    # one record fails refine, summarize and ner: 3 ledger entries of 9 records x 3
    assert detail["failed_frac"]["median"] == pytest.approx(3 / 27)


def _statuses(stub: bench_stub.StubLLM, prompts: list[str]) -> list[tuple[int, str]]:
    return [stub.respond(p) for p in prompts]


def test_stub_failure_injection_is_deterministic_per_seed():
    texts = [f"record {i} text." for i in range(20)]
    counts = {"flaky": 2, "garbled_once": 2, "garbled": 2, "fatal": 1}
    plan = bench_stub.pick_failures(texts, 7, counts)
    assert plan == bench_stub.pick_failures(list(reversed(texts)), 7, counts)
    assert plan != bench_stub.pick_failures(texts, 8, counts)
    assert sorted(plan.values()) == sorted(k for k, n in counts.items() for _ in range(n))

    prompts = [f"{stage} {t}" for t in texts
               for stage in ("Rewrite", "Summarize", "Extract the medical entities")]
    prompts = prompts + prompts      # every prompt retried once
    stub = bench_stub.StubLLM(texts, plan, latency_s=0.0)
    first = _statuses(stub, prompts)
    stub.reset()
    assert _statuses(stub, prompts) == first
    flaky = [t for t, k in plan.items() if k == "flaky"]
    assert stub.counters.status_503 == 3 * len(flaky) + 6 * 1
    assert stub.counters.garbled == 2 * 2 + 2 * 1


def test_stub_serves_http_and_stops_promptly():
    text = "انا عندي صداع شديد. شكرا."
    stub = bench_stub.StubLLM([text], {}, latency_s=0.0)
    url = stub.start()
    try:
        body = json.dumps({"messages": [{"role": "user",
                                         "content": f"Summarize this:\n{text}"}]}).encode()
        req = urllib.request.Request(url, data=body,
                                     headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=5) as resp:
            answer = json.loads(resp.read())["choices"][0]["message"]["content"]
        assert answer == "انا عندي صداع شديد."
        unknown = json.dumps({"messages": [{"role": "user", "content": "other"}]}).encode()
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(urllib.request.Request(url, data=unknown), timeout=5)
    finally:
        started = time.perf_counter()
        stub.stop()
    assert time.perf_counter() - started < 0.25


def test_stub_waits_out_concurrent_requests_together():
    texts = [f"record {i} text." for i in range(4)]
    stub = bench_stub.StubLLM(texts, {}, latency_s=0.2)
    url = stub.start()

    def ask(text):
        body = json.dumps({"messages": [{"role": "user", "content": f"Rewrite {text}"}]})
        with urllib.request.urlopen(urllib.request.Request(url, data=body.encode()),
                                    timeout=5) as resp:
            return resp.status

    try:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(texts)) as pool:
            statuses = list(pool.map(ask, texts))
        elapsed = time.perf_counter() - started
    finally:
        stub.stop()
    assert statuses == [200] * len(texts)
    assert elapsed < 0.6          # one after another would take 0.8 s


def test_uninstall_restores_every_original():
    before = [bench_trace._resolve(target)[2] for target, _, _ in bench_trace.PATCHES]
    saved = bench_trace.install(bench_trace.Tracer("t"))
    assert all(bench_trace._resolve(target)[2] is not raw
               for (target, _, _), raw in zip(bench_trace.PATCHES, before))
    bench_trace.uninstall(saved)
    assert all(bench_trace._resolve(target)[2] is raw
               for (target, _, _), raw in zip(bench_trace.PATCHES, before))


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, "r", {}],
             ["b", 1.0, 4.0, 0, "r", {}],
             ["c", 2.0, 3.0, 1, "r", {}],
             ["b", 5.0, 6.0, 0, "r", {}]]
    assert bench_trace.self_times(spans) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_reprompts_count_only_asks_that_reached_the_backend():
    spans = [["preprocess.ner", 0.0, 4.0, -1, "r", {}],
             ["preprocess.ask", 0.0, 1.0, 0, "r", {}],
             ["gateway.complete", 0.0, 1.0, 1, "r", {}],
             ["gateway.backend", 0.0, 1.0, 2, "r", {}],
             ["preprocess.ask", 2.0, 3.0, 0, "r", {}],         # reprompt sent
             ["gateway.complete", 2.0, 3.0, 4, "r", {}],
             ["gateway.backend", 2.0, 3.0, 5, "r", {}],
             ["preprocess.ner", 5.0, 6.0, -1, "r", {}],
             ["preprocess.ask", 5.0, 5.5, 7, "r", {}],
             ["gateway.complete", 5.0, 5.5, 8, "r", {}],
             ["preprocess.ask", 5.5, 6.0, 7, "r", {}],         # reprompt from the cache
             ["gateway.complete", 5.5, 6.0, 10, "r", {}]]
    assert bench_trace.layer_metrics(spans, 0, [])["preprocess.reprompts"] == 1


def test_traced_pass_gives_the_same_outputs(tiny, tmp_path):
    workload = TinyGrid()
    setup = workload.setup(str(tmp_path / "setup"), SEED)
    plain = workload.run_pass(setup, str(tmp_path / "plain"))
    tracer = bench_trace.Tracer("t")
    saved = bench_trace.install(tracer)
    try:
        traced = workload.run_pass(setup, str(tmp_path / "traced"), tracer)
    finally:
        bench_trace.uninstall(saved)
    assert not plain.problems and not traced.problems
    assert plain.digest == traced.digest
    names = {s[0] for s in tracer.spans}
    assert {"cli.train_ft", "encoder.forward_train", "trainer.adamw",
            "gateway.limiter", "preprocess.ner"} <= names
    metrics = bench_trace.layer_metrics(tracer.spans, traced.ledger_entries, ["cli.report_s"])
    assert metrics["evaluator.predict_passes"] == 2
    assert metrics["trainer.steps"] == 4 * 2 * 6       # 4 cells x 2 epochs x ceil(24 / 4)


def test_cell_scores_must_match_the_prediction_dump(tmp_path):
    rows = [{"record_id": f"r{i}", "task": "type", "pred": "a", "gold": g}
            for i, g in enumerate("aab")]
    (tmp_path / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    scores = {"type": {"accuracy": 2 / 3, "n": 3, "confusion": [[2, 0], [1, 0]]}}
    (tmp_path / "scores.json").write_text(json.dumps({"tasks": scores}))
    assert bench_workloads._check_cell(str(tmp_path), 3) == []
    scores["type"]["accuracy"] = 1.0
    (tmp_path / "scores.json").write_text(json.dumps({"tasks": scores}))
    assert bench_workloads._check_cell(str(tmp_path), 3)
