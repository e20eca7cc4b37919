import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

from medcascade import cli, evaluator, gateway, preprocess, trainer
from medcascade.atomic import file_digest
from medcascade.cli import _stale, main
from medcascade.synthetic import write_synthetic_corpus
from medcascade.variants import CONDITIONS, load_variant

from conftest import edit_safetensors_header, serving


def _write_workspace():
    """A 60-record corpus and a toy-encoder config in the working directory."""
    os.makedirs("data", exist_ok=True)
    write_synthetic_corpus("data/corpus.jsonl", n=60, seed=3)
    config = {
        "corpus": "data/corpus.jsonl",
        "workdir": "work",
        "train": {"epochs": 2, "learning_rate": 2e-3},
        "model": {"toy": {"d_model": 16, "d_ff": 24, "n_layers": 1}},
    }
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_workspace()
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestPipelineSmoke:
    def test_full_chain(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json", "--backend", "mock") == 0
        assert run("variants", "--config", "cfg.json") == 0
        assert run("train", "--config", "cfg.json", "--model", "toy",
                   "--condition", "ner") == 0
        assert run("train", "--config", "cfg.json", "--model", "toy",
                   "--condition", "ner", "--no-finetune") == 0
        assert run("report", "--config", "cfg.json") == 0

        report = json.loads((workspace / "work" / "reports" / "report.json").read_text())
        cells = {(c["model_id"], c["condition"], c["fine_tuned"]) for c in report["cells"]}
        assert ("toy", "ner", True) in cells
        assert ("toy", "ner", False) in cells
        assert (workspace / "work" / "reports" / "report.md").exists()
        run_dir = workspace / "work" / "runs" / "toy__ner__finetuned"
        for artifact in ("scores.json", "trainlog.csv", "manifest.json",
                         "predictions.jsonl", "checkpoint.npz"):
            assert (run_dir / artifact).exists()

    def test_each_state_sits_beside_its_stages_outputs(self, workspace):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 0
        assert run("train", "--config", "cfg.json", "--condition", "ner", "--no-finetune") == 0
        assert run("report", "--config", "cfg.json") == 0
        work = workspace / "work"
        states = sorted(str(p.relative_to(work)) for p in work.rglob("*state.json"))
        assert states == [".preprocess.state.json",
                          os.path.join("reports", ".state.json"),
                          os.path.join("runs", "toy__ner__frozen", ".state.json"),
                          os.path.join("splits", ".state.json"),
                          *(os.path.join("variants", c, ".state.json")
                            for c in ("ner", "normal", "refined", "summarized"))]
        # preprocess's sits beside bundles/: every file in it is the same for
        # any live url, and the state, which hashes the url, is not
        assert sorted(p.name for p in (work / "bundles").iterdir()) == \
            ["bundles.jsonl", "failures.jsonl"]

    def test_variants_before_preprocess(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 1
        assert "MissingUpstreamArtifact" in capsys.readouterr().err

    def test_train_before_variants(self, workspace, capsys):
        assert run("train", "--config", "cfg.json", "--condition", "ner") == 1
        assert "MissingUpstreamArtifact" in capsys.readouterr().err

    def test_report_without_runs(self, workspace, capsys):
        assert run("report", "--config", "cfg.json") == 1
        assert "MissingUpstreamArtifact" in capsys.readouterr().err

    def test_report_over_runs_without_scores(self, workspace, capsys):
        (workspace / "work" / "runs" / "toy__normal__frozen").mkdir(parents=True)
        assert run("report", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("MissingUpstreamArtifact: ") and "no scores.json" in err

    def test_an_older_corpus_with_a_diagnosis_label_gives_the_same_splits(self, workspace):
        with open("data/corpus.jsonl", encoding="utf-8") as src, \
                open("data/old.jsonl", "w", encoding="utf-8") as dst:
            for i, line in enumerate(src):
                record = json.loads(line)
                record["labels"]["diagnosis"] = ("flu", None)[i % 2]
                dst.write(json.dumps(record, ensure_ascii=False) + "\n")
        manifest = json.loads(Path("data/corpus.manifest.json").read_text(encoding="utf-8"))
        manifest["vocab"]["diagnosis"] = ["flu", "eczema"]
        Path("data/old.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("ingest", "--config", "cfg.json", "--corpus", "data/old.jsonl",
                   "--workdir", "old") == 0
        for part in ("train", "val", "test"):
            new, old = (Path(w, "splits", f"{part}.jsonl").read_bytes() for w in ("work", "old"))
            assert old == new
            assert json.loads(Path("old", "splits", f"{part}.manifest.json").read_text(
                encoding="utf-8"))["vocab"]["diagnosis"] == ["flu", "eczema"]

    def test_variants_refuse_bundles_of_text_that_changed(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 0
        lines = Path("data/corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["text"] += " وكمان عندي كحة."
        lines[0] = json.dumps(record, ensure_ascii=False) + "\n"
        Path("data/corpus.jsonl").write_text("".join(lines), encoding="utf-8")
        assert run("ingest", "--config", "cfg.json") == 0
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("MissingBundle: ") and repr(record["id"]) in err
        assert "medcascade preprocess" in err
        assert run("preprocess", "--config", "cfg.json") == 0
        assert "(3 gateway calls, 177 cache hits)" in capsys.readouterr().out
        assert run("variants", "--config", "cfg.json") == 0
        variants = str(workspace / "work" / "variants")
        (example,) = [ex for part in ("train", "val", "test")
                      for ex in load_variant(variants, "refined", part).examples
                      if ex.record_id == record["id"]]
        assert "كحة" in example.text and "كحة" in example.aux   # the new text and its refinement


class TestIdempotence:
    def test_rerun_short_circuits(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        cache = workspace / "work" / "cache" / "responses.jsonl"
        cached = cache.read_bytes()
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json") == 0
        assert "up to date" in capsys.readouterr().out
        assert run("preprocess", "--config", "cfg.json") == 0
        assert capsys.readouterr().out == "preprocess: up to date\n"
        assert cache.read_bytes() == cached     # every backend call appends to the cache

    def test_ingest_redoes_work_when_the_corpus_format_changes(self, workspace, capsys):
        # the same bytes under a .csv name are read as CSV, which they are not;
        # both names share the manifest data/corpus.manifest.json
        shutil.copy("data/corpus.jsonl", "data/corpus.csv")
        assert run("ingest", "--config", "cfg.json") == 0
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json", "--corpus", "data/corpus.csv") == 1
        assert capsys.readouterr().err.startswith("MalformedRecord: ")

    def test_ingest_redoes_work_when_corpus_changes(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        write_synthetic_corpus("data/corpus.jsonl", n=61, seed=4)
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json") == 0
        assert "up to date" not in capsys.readouterr().out

    def test_rerun_after_partial_preprocess(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        log = workspace / "work" / "bundles" / "bundles.jsonl"
        whole = log.read_bytes()
        # a log cut to two bundles, and no state
        log.write_bytes(b"".join(whole.splitlines(keepends=True)[:2]))
        (workspace / "work" / ".preprocess.state.json").unlink()
        capsys.readouterr()
        assert run("preprocess", "--config", "cfg.json") == 0
        out = capsys.readouterr().out
        # the cache replays every record's three completions: no backend traffic
        assert "preprocess: 60 bundles" in out
        assert "(0 gateway calls, 180 cache hits)" in out
        assert log.read_bytes() == whole

    def test_resume_flag_is_gone(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            run("preprocess", "--config", "cfg.json", "--resume")
        assert exc.value.code == 1
        assert "UsageError: " in capsys.readouterr().err

    def test_mock_preprocess_writes_one_file_per_store(self, workspace):
        """One file per store, not one per completion or bundle."""
        corpus = Path(__file__).resolve().parents[1] / "data" / "synthetic" / "corpus.jsonl"
        assert run("ingest", "--config", "cfg.json", "--corpus", str(corpus)) == 0
        assert run("preprocess", "--config", "cfg.json", "--corpus", str(corpus)) == 0
        work = workspace / "work"
        created = sorted(str(p.relative_to(work)) for p in work.rglob("*")
                         if p.is_file() and p.parts[len(work.parts)] != "splits")
        assert created == [".preprocess.state.json", os.path.join("bundles", "bundles.jsonl"),
                           os.path.join("bundles", "failures.jsonl"),
                           os.path.join("cache", "responses.jsonl")]
        assert (work / "bundles" / "failures.jsonl").read_bytes() == b""
        assert (work / "bundles" / "bundles.jsonl").read_bytes().count(b"\n") == 200


    @pytest.mark.parametrize("state", [b'{"input_ha', b"[]", b"\xff\xfe"],
                             ids=["truncated", "not-object", "not-utf8"])
    def test_unreadable_state_is_stale(self, tmp_path, state):
        path = tmp_path / ".state.json"
        path.write_bytes(state)
        assert _stale(str(path), {}, [str(tmp_path)]) == ["state"]

    def test_ingest_redoes_work_when_state_is_truncated(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        state = workspace / "work" / "splits" / ".state.json"
        state.write_text('{"input_hash": "ab', encoding="utf-8")
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json") == 0
        assert "up to date" not in capsys.readouterr().out
        assert json.loads(state.read_text(encoding="utf-8"))["file corpus"]

    def test_preprocess_redoes_work_when_the_live_model_changes(self, workspace, capsys,
                                                                 monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        monkeypatch.setattr(cli, "run_bundle", lambda records, gw, store: [])
        assert run("ingest", "--config", "cfg.json") == 0

        def preprocess(model):
            config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
            config["gateway"] = {"backend": "openai", "url": "http://127.0.0.1:9/v1",
                                 "model": model}
            (workspace / "live.json").write_text(json.dumps(config), encoding="utf-8")
            capsys.readouterr()
            assert run("preprocess", "--config", "live.json") == 0
            return "up to date" in capsys.readouterr().out

        assert [preprocess(m) for m in ("model-a", "model-a", "model-b")] == \
            [False, True, False]

    def test_preprocess_redoes_work_when_the_mock_lexicon_changes(self, workspace, capsys,
                                                                   monkeypatch):
        monkeypatch.setattr(cli, "run_bundle", lambda records, gw, store: [])
        lexicon = workspace / "symptom_lexicon.txt"      # a copy of the bundled lexicon
        shutil.copy(gateway._LEXICON_PATH, lexicon)
        monkeypatch.setattr(gateway, "_LEXICON_PATH", str(lexicon))
        assert run("ingest", "--config", "cfg.json") == 0

        def preprocess(terms):
            if terms is not None:
                lexicon.write_text(terms, encoding="utf-8")
            capsys.readouterr()
            assert run("preprocess", "--config", "cfg.json") == 0
            return "up to date" in capsys.readouterr().out

        assert [preprocess(t) for t in (None, None, "fever\n")] == [False, True, False]

    def test_a_value_that_names_a_file_is_hashed_as_the_value(self, workspace, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(cli, "run_bundle", lambda records, gw, store: [])
        assert run("ingest", "--config", "cfg.json") == 0
        stray = workspace / "mock"      # same name as the backend value
        for content in ("one", "two"):
            stray.write_text(content, encoding="utf-8")
            capsys.readouterr()
            assert run("preprocess", "--config", "cfg.json", "--backend", "mock") == 0
        assert "up to date" in capsys.readouterr().out

    def test_bundle_directory_does_not_depend_on_the_live_url(self, workspace, monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        answer = {"choices": [{"message": {"content": "صداع"}}]}
        monkeypatch.setattr(gateway._HTTPBackend, "_post", lambda self, prompt, flight: answer)
        trees = []
        for port in (9, 10):
            config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
            config["workdir"] = f"work{port}"
            config["gateway"] = {"backend": "openai", "url": f"http://127.0.0.1:{port}/v1",
                                 "rate_per_sec": 1e6}
            (workspace / "live.json").write_text(json.dumps(config), encoding="utf-8")
            assert run("ingest", "--config", "live.json") == 0
            assert run("preprocess", "--config", "live.json") == 0
            bundles = workspace / f"work{port}" / "bundles"
            trees.append({p.name: p.read_bytes() for p in bundles.iterdir()})
        assert trees[0]["bundles.jsonl"].count(b"\n") == 60
        assert trees[0] == trees[1]

    def test_train_redoes_work_when_the_label_vocabulary_changes(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        train = ("train", "--config", "cfg.json", "--condition", "normal", "--no-finetune")
        assert run(*train) == 0
        manifest = workspace / "work" / "splits" / "train.manifest.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["vocab"]["type"] = data["vocab"]["type"][::-1]
        manifest.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run(*train) == 0
        assert "up to date" not in capsys.readouterr().out

    def test_train_redoes_work_when_the_encoder_weights_change(self, workspace, capsys):
        from medcascade.encoder import build_toy_encoder
        toy = {"d_model": 16, "d_ff": 24, "n_layers": 1}
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["model"] = {"weights_dir": "weights"}
        (workspace / "exported.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "exported.json") == 0
        assert run("variants", "--config", "exported.json", "--condition", "normal") == 0
        train = ("train", "--config", "exported.json", "--model", "exported",
                 "--condition", "normal", "--no-finetune")
        scores = workspace / "work" / "runs" / "exported__normal__frozen" / "scores.json"
        outputs = []
        for seed in (0, 0, 1):  # the same weights, then new weights in the same directory
            build_toy_encoder(seed=seed, **toy).save_base("weights")
            capsys.readouterr()
            assert run(*train) == 0
            outputs.append(("up to date" in capsys.readouterr().out, scores.read_bytes()))
        assert [fresh for fresh, _ in outputs] == [False, True, False]
        assert outputs[2][1] != outputs[0][1]

    def test_train_redoes_work_when_the_code_that_writes_it_changes(self, workspace, capsys,
                                                                    monkeypatch):
        source = workspace / "module.py"
        source.write_text("VERSION = 1\n", encoding="utf-8")
        monkeypatch.setattr(cli, "SOURCES", [str(source)])
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        train = ("train", "--config", "cfg.json", "--condition", "normal", "--no-finetune")
        fresh = []
        for version in (1, 1, 2):
            source.write_text(f"VERSION = {version}\n", encoding="utf-8")
            capsys.readouterr()
            assert run(*train) == 0
            fresh.append("up to date" not in capsys.readouterr().out)
        assert fresh == [True, False, True]

    def test_every_stage_hashes_modules_that_exist(self):
        assert cli.SOURCES == sorted(cli.SOURCES)
        assert all(os.path.isfile(p) for p in cli.SOURCES)
        assert {"atomic.py", "cli.py", "corpus.py", "encoder.py", "trainer.py"} <= {
            os.path.basename(p) for p in cli.SOURCES}

    def test_train_hashes_every_module_of_the_package(self, workspace, monkeypatch):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert run("train", "--config", "cfg.json", "--condition", "normal", "--no-finetune") == 0
        package = os.path.dirname(os.path.abspath(cli.__file__))
        modules = {f"code {name}": file_digest(os.path.join(package, name))
                   for name in os.listdir(package) if name.endswith(".py")}
        state = workspace / "work" / "runs" / "toy__normal__frozen" / ".state.json"
        assert modules.items() <= json.loads(state.read_text(encoding="utf-8")).items()


class TestStageState:
    def test_each_variant_condition_keeps_its_own_state(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        capsys.readouterr()
        outputs = []
        for argv in ((), ("--condition", "normal"), ()):
            assert run("variants", "--config", "cfg.json", *argv) == 0
            outputs.append(capsys.readouterr().out)
        dirs = {c: os.path.join("work", "variants", c) for c in CONDITIONS}
        assert outputs[0] == "".join(f"variants[{c}]: 48/6/6 examples into {dirs[c]}\n"
                                     for c in CONDITIONS)
        assert outputs[1:] == ["variants[normal]: up to date\n",
                               "".join(f"variants[{c}]: up to date\n" for c in CONDITIONS)]

    def test_only_the_stale_conditions_are_built(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 0
        (workspace / "work" / "variants" / "ner" / "test.jsonl").unlink()
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 0
        ner = os.path.join("work", "variants", "ner")
        assert capsys.readouterr().out == ("variants[normal]: up to date\n"
                                           "variants[refined]: up to date\n"
                                           "variants[summarized]: up to date\n"
                                           f"variants[ner]: 48/6/6 examples into {ner}\n")

    def test_an_interrupted_run_keeps_the_conditions_it_finished(self, workspace, capsys,
                                                                monkeypatch):
        class Crash(BaseException):
            pass

        real = cli.write_variant

        def write_variant(variant, directory, part):
            if (variant.condition, part) == ("refined", "val"):   # the second condition
                raise Crash
            return real(variant, directory, part)

        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        monkeypatch.setattr(cli, "write_variant", write_variant)
        with pytest.raises(Crash):
            run("variants", "--config", "cfg.json")
        monkeypatch.setattr(cli, "write_variant", real)
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variants[normal]: up to date"
        assert [line.partition(":")[0] for line in lines[1:] if "up to date" not in line] == \
            ["variants[refined]", "variants[summarized]", "variants[ner]"]
        variants = workspace / "work" / "variants"
        resumed = _tree(variants)
        shutil.rmtree(variants)
        assert run("variants", "--config", "cfg.json") == 0
        assert _tree(variants) == resumed

    def test_the_splits_are_read_once_and_only_for_a_stale_condition(self, workspace,
                                                                     monkeypatch):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        reads = []
        real = cli.load_corpus
        monkeypatch.setattr(cli, "load_corpus", lambda path: reads.append(path) or real(path))
        assert run("variants", "--config", "cfg.json") == 0
        assert len(reads) == 3
        reads.clear()
        assert run("variants", "--config", "cfg.json") == 0
        assert reads == []

    def test_report_is_up_to_date_until_its_outputs_change(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   "--no-finetune") == 0
        assert run("report", "--config", "cfg.json") == 0
        report = workspace / "work" / "reports" / "report.md"
        clean = report.read_bytes()
        capsys.readouterr()
        assert run("report", "--config", "cfg.json") == 0
        assert capsys.readouterr().out == "report: up to date\n"
        report.unlink()
        assert run("report", "--config", "cfg.json") == 0
        assert "up to date" not in capsys.readouterr().out
        assert report.read_bytes() == clean

    def test_a_file_is_hashed_in_chunks_to_the_digest_of_its_bytes(self, tmp_path):
        path = tmp_path / "weights.bin"
        data = bytes(range(256)) * 20_481    # 5 MiB and 256 bytes
        path.write_bytes(data)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()
        assert file_digest(tmp_path / "absent.bin") is None


class TestNamedTrace:
    """A stale stage's state names what changed: ``_stale`` returns the names
    of the dependencies whose digests differ."""

    @pytest.fixture
    def reasons(self, monkeypatch):
        """What each ``_stale`` call returned."""
        seen = []
        real = cli._stale
        monkeypatch.setattr(cli, "_stale", lambda *a: seen.append(real(*a)) or seen[-1])
        return seen

    def test_a_corpus_byte(self, workspace, reasons):
        assert run("ingest", "--config", "cfg.json") == 0
        corpus = workspace / "data" / "corpus.jsonl"
        data = corpus.read_bytes()
        corpus.write_bytes(data.replace(b'"age": 2', b'"age": 3', 1))
        reasons.clear()
        assert run("ingest", "--config", "cfg.json") == 0
        assert reasons == [["file corpus"]]

    def test_a_config_key(self, workspace, reasons):
        train = ("train", "--config", "cfg.json", "--condition", "normal", "--no-finetune")
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert run(*train) == 0
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["train"]["epochs"] += 1
        (workspace / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        reasons.clear()
        assert run(*train) == 0
        assert reasons == [["train"]]

    def test_a_module(self, workspace, reasons, monkeypatch):
        source = workspace / "module.py"
        source.write_text("VERSION = 1\n", encoding="utf-8")
        monkeypatch.setattr(cli, "SOURCES", [str(source)])
        assert run("ingest", "--config", "cfg.json") == 0
        source.write_text("VERSION = 2\n", encoding="utf-8")
        reasons.clear()
        assert run("ingest", "--config", "cfg.json") == 0
        assert reasons == [["code module.py"]]

    def test_a_deleted_output(self, workspace, reasons):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        (workspace / "work" / "variants" / "normal" / "test.jsonl").unlink()
        reasons.clear()
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert reasons == [["output test.jsonl"]]

    def test_a_changed_bundle_log(self, workspace, reasons, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 0
        log = workspace / "work" / "bundles" / "bundles.jsonl"
        first, *rest = log.read_text(encoding="utf-8").splitlines(keepends=True)
        bundle = json.loads(first)
        bundle["refined"] += " وصداع"
        log.write_text("".join([json.dumps(bundle, ensure_ascii=False) + "\n", *rest]),
                       encoding="utf-8")
        reasons.clear()
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 0
        assert reasons == [[], ["file bundles"], ["file bundles"], ["file bundles"]]
        built = [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()
                 if "up to date" not in line]
        assert built == ["variants[refined]", "variants[summarized]", "variants[ner]"]

    def test_a_missing_state(self, workspace, reasons):
        assert run("ingest", "--config", "cfg.json") == 0
        (workspace / "work" / "splits" / ".state.json").unlink()
        reasons.clear()
        assert run("ingest", "--config", "cfg.json") == 0
        assert reasons == [["state"]]

    def test_no_state_holds_an_absolute_path_or_a_live_url(self, workspace, monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        monkeypatch.setattr(cli, "run_bundle", lambda records, gw, store: [])
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config.update(workdir=str(workspace / "work"), corpus=str(workspace / config["corpus"]),
                      gateway={"backend": "openai", "url": "http://127.0.0.1:9/v1"})
        (workspace / "abs.json").write_text(json.dumps(config), encoding="utf-8")
        for argv in (("ingest",), ("preprocess",), ("variants", "--condition", "normal"),
                     ("train", "--condition", "normal", "--no-finetune"), ("report",)):
            assert run(*argv, "--config", "abs.json") == 0, argv
        states = sorted((workspace / "work").rglob("*state.json"))
        assert len(states) == 5
        for path in states:
            text = path.read_text(encoding="utf-8")
            assert str(workspace) not in text, path
            for name in json.loads(text):
                assert not os.path.isabs(name.partition(" ")[2]), (path, name)
        preprocess = (workspace / "work" / ".preprocess.state.json").read_text(encoding="utf-8")
        assert "127.0.0.1" not in preprocess and "scope" in json.loads(preprocess)


class TestLiveUrl:
    """A malformed live url is refused before any request, and no state is
    written, so the next run does not call the stage up to date."""

    @pytest.mark.parametrize("url", ["ftp://localhost/v1", "http:///v1", "localhost:8080/v1",
                                     "http://localhost:abc/v1", "http://localhost:99999/v1",
                                     "http://localhost:0/v1", "http://user:pw@localhost:8080/v1"])
    @pytest.mark.parametrize("source", ["gateway.url", "$MEDCASCADE_LLM_URL"])
    def test_a_malformed_url_is_a_config_error(self, workspace, capsys, monkeypatch,
                                               url, source):
        monkeypatch.setattr(gateway._HTTPBackend, "send",
                            lambda self, prompt: pytest.fail("a request was sent"))
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["gateway"] = {"backend": "openai", "url": "http://127.0.0.1:9/v1"}
        if source == "gateway.url":
            monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
            config["gateway"]["url"] = url
        else:
            monkeypatch.setenv("MEDCASCADE_LLM_URL", url)
        (workspace / "live.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "live.json") == 0
        capsys.readouterr()
        assert run("preprocess", "--config", "live.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ") and source in err
        assert not (workspace / "work" / ".preprocess.state.json").exists()
        assert not (workspace / "work" / "bundles").exists()


class _KeyCheckingLLM(BaseHTTPRequestHandler):
    """A chat/completions server that answers only the key ``good``, with a 401
    for any other; ``keys`` lists the key of every request, in arrival order."""

    keys = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        key = self.headers.get("Authorization", "").removeprefix("Bearer ")
        self.keys.append(key)
        data = json.dumps({"choices": [{"message": {"content": "symptom: حمى"}}]}).encode()
        self.send_response(200 if key == "good" else 401)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestRejectedKey:
    """A 401 or 403 is no one record's failure: ``preprocess`` stops at the first
    one and leaves nothing behind that a rerun with a good key would trust."""

    @pytest.fixture
    def live(self, workspace, monkeypatch):
        with serving(_KeyCheckingLLM) as port:
            _KeyCheckingLLM.keys = []
            monkeypatch.setenv("MEDCASCADE_LLM_URL",
                               f"http://127.0.0.1:{port}/v1/chat/completions")
            config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
            config["gateway"] = {"backend": "openai", "rate_per_sec": 1e6, "burst": 1e6}
            (workspace / "live.json").write_text(json.dumps(config), encoding="utf-8")
            assert run("ingest", "--config", "live.json") == 0
            yield workspace

    def _preprocess(self, monkeypatch, capsys, key):
        monkeypatch.setenv("MEDCASCADE_LLM_KEY", key)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = run("preprocess", "--config", "live.json")
            gc.collect()   # an exchange left open warns when its socket is collected
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        return code, capsys.readouterr()

    def test_a_rejected_key_stops_the_run_and_writes_nothing(self, live, monkeypatch, capsys):
        code, out = self._preprocess(monkeypatch, capsys, "bad")
        assert code == 1
        assert out.err.startswith("AuthError: HTTP 401 from http://127.0.0.1:")
        assert out.out == ""
        assert 1 <= len(_KeyCheckingLLM.keys) <= preprocess._IN_FLIGHT
        assert set(_KeyCheckingLLM.keys) == {"bad"}
        assert not (live / "work" / ".preprocess.state.json").exists()
        assert not (live / "work" / "bundles").exists()

    def test_a_rerun_with_a_good_key_does_the_work(self, live, monkeypatch, capsys):
        assert self._preprocess(monkeypatch, capsys, "bad")[0] == 1
        code, out = self._preprocess(monkeypatch, capsys, "good")
        assert code == 0
        assert out.out.startswith("preprocess: 60 bundles in ")
        assert "(180 gateway calls, 0 cache hits)" in out.out
        bundles = live / "work" / "bundles"
        assert (bundles / "bundles.jsonl").read_bytes().count(b"\n") == 60
        assert (bundles / "failures.jsonl").read_bytes() == b""
        assert run("preprocess", "--config", "live.json") == 0
        assert capsys.readouterr().out.startswith("preprocess: up to date")


class _SummaryOutageLLM(BaseHTTPRequestHandler):
    """A chat/completions server that answers every prompt with ``symptom: حمى``,
    except each summarize prompt with an HTTP 503 while ``down`` is set;
    ``prompts`` lists every prompt, in arrival order."""

    down = False
    prompts = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        self.prompts.append(prompt)
        data = json.dumps({"choices": [{"message": {"content": "symptom: حمى"}}]}).encode()
        self.send_response(503 if self.down and prompt.startswith("Summarize") else 200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestExhaustedRetries:
    """A call that ran out of retries is no result: ``preprocess`` writes its
    bundles and ledger, says so on stderr and records no state, so the next
    run asks those calls again; stdout and the exit code are as for any run."""

    def _config(self, workspace, url, workdir="work"):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["workdir"] = workdir
        config["gateway"] = {"backend": "openai", "url": url, "max_retries": 0,
                             "rate_per_sec": 1e6, "burst": 1e6}
        (workspace / f"{workdir}.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", f"{workdir}.json") == 0
        return f"{workdir}.json"

    def _preprocess(self, capsys, config):
        capsys.readouterr()
        assert run("preprocess", "--config", config) == 0
        return capsys.readouterr()

    @pytest.fixture
    def stub(self, monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        with serving(_SummaryOutageLLM) as port:
            _SummaryOutageLLM.down, _SummaryOutageLLM.prompts = False, []
            yield f"http://127.0.0.1:{port}/v1/chat/completions"

    def test_a_refused_port_writes_bundles_and_ledger_but_no_state(self, workspace, capsys,
                                                                   monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        config = self._config(workspace, "http://127.0.0.1:9/v1")
        for _ in range(2):   # no state, so the second run asks every prompt again
            out = self._preprocess(capsys, config)
            assert out.out == "preprocess: 60 bundles in work/bundles " \
                              "(180 gateway calls, 0 cache hits)\n"
            assert out.err == "preprocess: 180 calls ran out of retries (RetriesExhausted in " \
                              "work/bundles/failures.jsonl); not up to date, so the next run " \
                              "asks them again\n"
            assert not (workspace / "work" / ".preprocess.state.json").exists()
        ledger = (workspace / "work" / "bundles" / "failures.jsonl").read_text(encoding="utf-8")
        assert {json.loads(line)["error"] for line in ledger.splitlines()} == {"RetriesExhausted"}
        assert ledger.count("\n") == 180
        assert run("variants", "--config", config, "--condition", "refined") == 0
        for part in ("train", "val", "test"):
            provenance = json.loads((workspace / "work" / "variants" / "refined" /
                                     f"{part}.provenance.json").read_text(encoding="utf-8"))
            assert provenance["empty_aux_count"] == provenance["count"] > 0

    def test_a_rerun_asks_only_the_failed_prompts(self, workspace, capsys, stub):
        clean = self._config(workspace, stub, workdir="clean")
        assert self._preprocess(capsys, clean).err == ""
        config = self._config(workspace, stub)
        _SummaryOutageLLM.down, _SummaryOutageLLM.prompts = True, []
        out = self._preprocess(capsys, config)
        assert "(180 gateway calls, 0 cache hits)" in out.out
        assert out.err.startswith("preprocess: 60 calls ran out of retries")
        assert not (workspace / "work" / ".preprocess.state.json").exists()
        summaries = sorted(p for p in _SummaryOutageLLM.prompts if p.startswith("Summarize"))
        assert len(summaries) == 60

        _SummaryOutageLLM.down, _SummaryOutageLLM.prompts = False, []
        out = self._preprocess(capsys, config)
        assert "(60 gateway calls, 120 cache hits)" in out.out and out.err == ""
        assert sorted(_SummaryOutageLLM.prompts) == summaries
        assert (workspace / "work" / ".preprocess.state.json").exists()
        for name in ("bundles.jsonl", "failures.jsonl"):
            assert (workspace / "work" / "bundles" / name).read_bytes() == \
                (workspace / "clean" / "bundles" / name).read_bytes()
        assert self._preprocess(capsys, config).out == "preprocess: up to date\n"


class TestEncoderStore:
    TRAIN = ("train", "--config", "cfg.json", "--condition", "normal")

    def _cells(self, workspace) -> dict[str, bytes]:
        return _tree(workspace / "work" / "runs")

    def test_the_second_train_maps_the_base_instead_of_drawing(self, workspace, monkeypatch):
        from medcascade import encoder
        draws = []
        real = encoder._draw_normal
        monkeypatch.setattr(encoder, "_draw_normal", lambda *a: draws.append(1) or real(*a))
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert run(*self.TRAIN) == 0
        assert run(*self.TRAIN, "--no-finetune") == 0
        assert len(draws) == 1
        assert len(os.listdir(workspace / "work" / "encoders")) == 1
        drawn = self._cells(workspace)
        shutil.rmtree(workspace / "work" / "runs")
        assert run(*self.TRAIN) == 0
        assert run(*self.TRAIN, "--no-finetune") == 0
        assert len(draws) == 1
        assert self._cells(workspace) == drawn

    def test_the_store_is_a_cache_not_an_output(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        assert run(*self.TRAIN) == 0
        assert run(*self.TRAIN, "--no-finetune") == 0
        cells = self._cells(workspace)
        shutil.rmtree(workspace / "work" / "encoders")
        capsys.readouterr()
        assert run(*self.TRAIN) == 0
        assert run(*self.TRAIN, "--no-finetune") == 0
        assert capsys.readouterr().out.count("up to date") == 2
        shutil.rmtree(workspace / "work" / "runs")
        assert run(*self.TRAIN) == 0      # draws the base again, to the same bytes
        assert run(*self.TRAIN, "--no-finetune") == 0
        assert self._cells(workspace) == cells


BUNDLED_CORPUS = Path(__file__).resolve().parents[1] / "data" / "synthetic" / "corpus.jsonl"


@pytest.fixture(scope="module")
def bundled_variants(tmp_path_factory):
    """A workdir holding the variants of the bundled corpus (toy encoder, 1 epoch)."""
    root = tmp_path_factory.mktemp("bundled")
    (root / "cfg.json").write_text(json.dumps(
        {"corpus": str(BUNDLED_CORPUS), "workdir": "work", "train": {"epochs": 1}}))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (("ingest",), ("preprocess",), ("variants",)):
            assert run(*argv, "--config", "cfg.json") == 0
    return root


class TestTrainRow:
    """``train`` runs one cell per selected condition (all by default), each
    through its own stage state, with the encoder resolved once."""

    ARMS = ((), ("--no-finetune",))

    @pytest.fixture
    def variants(self, bundled_variants, tmp_path, monkeypatch):
        shutil.copytree(bundled_variants, tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.fixture
    def resolves(self, monkeypatch):
        calls = []
        real = cli.resolve_encoder
        monkeypatch.setattr(cli, "resolve_encoder",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    def test_a_row_writes_the_bytes_of_one_cell_per_invocation(self, variants):
        for arm in self.ARMS:
            assert run("train", "--config", "cfg.json", *arm) == 0
        row = _tree(variants / "work" / "runs")
        shutil.rmtree(variants / "work" / "runs")
        for condition in CONDITIONS:
            for arm in self.ARMS:
                assert run("train", "--config", "cfg.json", "--condition", condition, *arm) == 0
        assert {name.partition("/")[0] for name in row} == {
            f"toy__{c}__{arm}" for c in CONDITIONS for arm in ("finetuned", "frozen")}
        # every file byte for byte: trainlogs, scores, predictions, checkpoints,
        # manifests and states
        assert row == _tree(variants / "work" / "runs")

    def test_a_stale_row_resolves_the_encoder_once_and_a_current_one_never(self, variants,
                                                                            resolves, capsys):
        assert run("train", "--config", "cfg.json") == 0
        assert len(resolves) == 1
        resolves.clear()
        capsys.readouterr()
        assert run("train", "--config", "cfg.json") == 0
        assert resolves == []
        assert capsys.readouterr().out == "".join(
            f"train[toy__{c}__finetuned]: up to date\n" for c in CONDITIONS)

    def test_only_the_stale_cells_rerun_and_every_cell_prints_in_order(self, variants,
                                                                       resolves, capsys):
        assert run("train", "--config", "cfg.json", "--no-finetune") == 0
        runs = variants / "work" / "runs"
        clean = _tree(runs)
        (runs / "toy__refined__frozen" / "scores.json").unlink()
        (runs / "toy__ner__frozen" / "predictions.jsonl").write_text("", encoding="utf-8")
        resolves.clear()
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--no-finetune") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines] == \
            [f"train[toy__{c}__frozen]" for c in CONDITIONS]
        assert ["up to date" in line for line in lines] == [True, False, True, False]
        assert len(resolves) == 1
        assert _tree(runs) == clean

    def test_a_repeated_condition_runs_once_in_the_order_given(self, variants, capsys):
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--no-finetune", "--condition", "ner",
                   "--condition", "normal", "--condition", "ner") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines] == \
            ["train[toy__ner__frozen]", "train[toy__normal__frozen]"]
        assert sorted(os.listdir(variants / "work" / "runs")) == \
            ["toy__ner__frozen", "toy__normal__frozen"]

    def test_an_unknown_condition_in_a_row_is_a_usage_error(self, variants, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--config", "cfg.json", "--condition", "normal", "--condition", "bogus")
        assert exc.value.code == 1
        assert "UsageError: " in capsys.readouterr().err
        assert not (variants / "work" / "runs").exists()

    @pytest.mark.parametrize("arm", ARMS)
    def test_a_condition_without_variants_fails_before_any_cell(self, variants, capsys, arm):
        (variants / "work" / "variants" / "ner" / "test.jsonl").unlink()
        assert run("train", "--config", "cfg.json", *arm) == 1
        err = capsys.readouterr().err
        assert err.startswith("MissingUpstreamArtifact: ")
        assert os.path.join("variants", "ner", "test.jsonl") in err
        assert not (variants / "work" / "runs").exists()


CHAIN = [("ingest",), ("preprocess", "--backend", "mock"), ("variants", "--condition", "ner"),
         ("train", "--condition", "ner"), ("train", "--condition", "ner", "--no-finetune"),
         ("report",)]
FINETUNED = "runs/toy__ner__finetuned"
# one output of each kind, and the line of the stage that writes it
DAMAGED = {
    "splits/test.jsonl": "ingest:",
    "splits/train.manifest.json": "ingest:",
    "bundles/bundles.jsonl": "preprocess:",
    "variants/ner/train.jsonl": "variants[ner]:",
    "variants/ner/test.provenance.json": "variants[ner]:",
    **{f"{FINETUNED}/{name}": "train[toy__ner__finetuned]:"
       for name in ("checkpoint.npz", "predictions.jsonl", "trainlog.csv", "scores.json")},
}


def _run_chain() -> None:
    for argv in CHAIN:
        assert run(*argv, "--config", "cfg.json") == 0, argv


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def clean_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _write_workspace()
        _run_chain()
    return root, _tree(root / "work")


class TestDamagedOutputs:
    """A stage whose outputs were deleted or cut short is not up to date: a
    rerun of the chain redoes that stage and restores the clean bytes."""

    @pytest.mark.parametrize("how", ["delete", "truncate"])
    @pytest.mark.parametrize("damaged", sorted(DAMAGED))
    def test_rerun_heals_to_the_clean_bytes(self, clean_chain, tmp_path, monkeypatch, capsys,
                                            damaged, how):
        clean_root, clean = clean_chain
        shutil.copytree(clean_root, tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "work" / damaged
        if how == "delete":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        capsys.readouterr()
        _run_chain()
        lines = capsys.readouterr().out.splitlines()
        assert _tree(tmp_path / "work") == clean
        redone = [line for line in lines if line.startswith(DAMAGED[damaged])]
        assert redone and "up to date" not in redone[0]
        if damaged.startswith("bundles/"):  # redone from the warm response cache
            assert "(0 gateway calls," in redone[0]
        # only the damaged stage reruns: the report's inputs come back byte-identical
        assert sum("up to date" in line for line in lines) == len(CHAIN) - 1


class TestEncoderWeights:
    def _frozen_predictions(self, workspace, name, model):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config.update(workdir=name, model=model)
        (workspace / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", f"{name}.json") == 0
        assert run("variants", "--config", f"{name}.json", "--condition", "normal") == 0
        assert run("train", "--config", f"{name}.json", "--condition", "normal",
                   "--no-finetune") == 0
        cell = workspace / name / "runs" / "toy__normal__frozen"
        return (cell / "predictions.jsonl").read_bytes()

    def test_a_weights_dir_is_loaded_for_the_toy_backend(self, workspace, capsys):
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("weights")
        exported = self._frozen_predictions(workspace, "exported", {"weights_dir": "weights"})
        assert exported == self._frozen_predictions(workspace, "seed5", {"seed": 5})
        assert exported != self._frozen_predictions(workspace, "seed11", {})


    def test_the_model_flag_is_recorded_in_the_manifest(self, workspace):
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("weights")
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["model"] = {"weights_dir": "weights"}
        (workspace / "exported.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "exported.json") == 0
        assert run("variants", "--config", "exported.json", "--condition", "normal") == 0
        assert run("train", "--config", "exported.json", "--model", "exported",
                   "--condition", "normal", "--no-finetune") == 0
        cell = workspace / "work" / "runs" / "exported__normal__frozen"
        manifest = json.loads((cell / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["model_id"] == "exported"
        assert manifest["pipeline_config"]["model"]["backend_id"] == "exported"
        assert "train_config" not in manifest   # pipeline_config.train holds it

    def _exported_config(self, workspace, export="weights") -> str:
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["model"] = {"weights_dir": export}
        (workspace / "exported.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "exported.json") == 0
        assert run("variants", "--config", "exported.json", "--condition", "normal") == 0
        return "exported.json"

    def test_an_export_is_mapped_from_the_store_and_loaded_once(self, workspace, monkeypatch):
        import builtins

        import numpy as np
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("weights")
        config = self._exported_config(workspace)
        weights = os.path.join("weights", "model.safetensors")
        opens, reads = [], []
        real_open, real_fromfile = builtins.open, np.fromfile
        monkeypatch.setattr(builtins, "open", lambda f, *a, **k: (
            opens.append(1) if os.fspath(f) == weights else None) or real_open(f, *a, **k))
        monkeypatch.setattr(np, "fromfile", lambda f, *a, **k: (   # f is an open handle
            reads.append(1) if getattr(f, "name", None) == weights else None)
            or real_fromfile(f, *a, **k))
        counts = []
        for arm in ((), ("--no-finetune",)):
            opens.clear()
            reads.clear()
            assert run("train", "--config", config, "--condition", "normal", *arm) == 0
            counts.append((len(opens), len(reads)))
        # the first cell hashes the export and copies it into the store, one
        # read per tensor (5 embedding tensors and 16 per layer); the second
        # only hashes it, and maps the stored base
        assert counts == [(2, 5 + 16 * 2), (1, 0)]
        assert [p.suffix for p in (workspace / "work" / "encoders").iterdir()] == [".npy"]

    def test_a_frozen_row_opens_the_export_once_to_hash_and_once_to_fill(self, workspace,
                                                                         monkeypatch, capsys):
        import builtins

        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("weights")
        config = self._exported_config(workspace)
        assert run("preprocess", "--config", config) == 0
        assert run("variants", "--config", config) == 0
        weights = os.path.join("weights", "model.safetensors")
        opens = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda f, *a, **k: (
            opens.append(1) if os.fspath(f) == weights else None) or real_open(f, *a, **k))
        capsys.readouterr()
        assert run("train", "--config", config, "--no-finetune") == 0
        assert len(opens) == 2
        assert [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()] == \
            [f"train[toy__{c}__frozen]" for c in CONDITIONS]

    def test_an_export_with_a_damaged_vocabulary_is_a_user_error(self, workspace, capsys):
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("export_dir")
        (workspace / "export_dir" / "vocab.txt").write_text("[UNK]\n[CLS]\n[SEP]\n",
                                                            encoding="utf-8")
        config = self._exported_config(workspace, "export_dir")
        capsys.readouterr()
        assert run("train", "--config", config, "--condition", "normal", "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("VocabInvalid: ")
        assert "[PAD]" in err and "export_dir" in err

    def test_an_export_whose_vocabulary_is_a_directory_is_a_user_error(self, workspace,
                                                                        capsys):
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("export_dir")
        (workspace / "export_dir" / "vocab.txt").mkdir()
        config = self._exported_config(workspace, "export_dir")
        capsys.readouterr()
        assert run("train", "--config", config, "--condition", "normal", "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("VocabInvalid: ")
        assert os.path.join("export_dir", "vocab.txt") in err

    def test_an_export_that_misses_a_parameter_is_a_user_error(self, workspace, capsys):
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("export_dir")
        edit_safetensors_header(workspace / "export_dir" / "model.safetensors", lambda header:
                                header.pop("encoder.layer.1.intermediate.dense.weight"))
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["model"] = {"weights_dir": "export_dir"}
        (workspace / "exported.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "exported.json") == 0
        assert run("variants", "--config", "exported.json", "--condition", "normal") == 0
        capsys.readouterr()
        assert run("train", "--config", "exported.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("ShapeMismatch: ")
        assert "encoder.layer.1.intermediate.dense.weight" in err and "export_dir" in err


class TestPredictionPass:
    @pytest.mark.parametrize("arm", [[], ["--no-finetune"]], ids=["finetuned", "frozen"])
    def test_train_predicts_the_test_set_once(self, workspace, monkeypatch, arm):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        test_examples = load_variant("work/variants", "normal", "test").examples
        on_test_set = []
        for module in (trainer, evaluator):
            def counting(model, examples, *args, _predict=module.predict, **kwargs):
                on_test_set.append(list(examples) == test_examples)
                return _predict(model, examples, *args, **kwargs)
            monkeypatch.setattr(module, "predict", counting)
        assert run("train", "--config", "cfg.json", "--condition", "normal", *arm) == 0
        assert on_test_set.count(True) == 1


class TestErrors:
    def test_damaged_bundle_is_a_user_error(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        log = workspace / "work" / "bundles" / "bundles.jsonl"
        first, rest = log.read_bytes().split(b"\n", 1)
        record_id = json.loads(first)["record_id"]
        log.write_bytes(first[:30] + b"\n" + rest)
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("MissingBundle: ")
        assert repr(record_id) in err
        assert os.path.join("work", "bundles", "bundles.jsonl") in err

    def test_a_non_finite_loss_is_an_internal_error_and_writes_no_state(self, workspace,
                                                                        capsys, monkeypatch):
        def nan_loss(logits, targets, weights):
            _, dlogits = loss_and_grad(logits, targets, weights)
            return float("nan"), dlogits

        loss_and_grad = trainer.weighted_loss_and_grad
        monkeypatch.setattr(trainer, "weighted_loss_and_grad", nan_loss)
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("NonFiniteLoss: ")
        assert not (workspace / "work" / "runs" / "toy__normal__finetuned"
                    / ".state.json").exists()

    @pytest.mark.parametrize("damaged, edit", [
        ("test.jsonl", None),
        ("test.provenance.json", None),
        ("test.jsonl", lambda line: {**line, "text": 5}),
        ("test.jsonl", lambda line: {k: v for k, v in line.items() if k != "aux"}),
        ("test.jsonl", lambda line: {**line, "aux": None}),
        ("test.jsonl", lambda line: {**line, "record_id": ["r1"]}),
        ("test.jsonl", lambda line: {**line, "labels": {**line["labels"], "type": None}}),
        ("test.jsonl", lambda line: {**line, "labels": {**line["labels"], "severity": 2}}),
    ], ids=["test.jsonl", "test.provenance.json", "text-number", "aux-missing", "aux-null",
            "record_id-list",
            "type-null", "severity-number"])
    def test_damaged_variant_file_is_a_user_error(self, workspace, capsys, damaged, edit):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        path = workspace / "work" / "variants" / "normal" / damaged
        if edit is None:   # cut short
            path.write_bytes(path.read_bytes()[:-7])
        else:              # one field of the first line of the wrong type
            first, rest = path.read_text(encoding="utf-8").split("\n", 1)
            path.write_text(json.dumps(edit(json.loads(first))) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "variants", "normal", damaged) in err

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_an_empty_variant_file_is_a_user_error(self, workspace, capsys, part):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        (workspace / "work" / "variants" / "normal" / f"{part}.jsonl").write_bytes(b"")
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   *(["--no-finetune"] if part == "test" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "variants", "normal", f"{part}.jsonl") in err

    @pytest.mark.parametrize("task", ["type", "severity"])
    def test_a_variant_label_outside_the_vocabulary_names_its_file(self, workspace, capsys,
                                                                   task):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        path = workspace / "work" / "variants" / "normal" / "test.jsonl"
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        example = json.loads(first)
        example["labels"][task] = "zzz"
        path.write_text(json.dumps(example) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "variants", "normal", "test.jsonl") in err
        assert f"{example['record_id']!r}: {task} label 'zzz'" in err

    def test_any_other_exception_is_one_internal_error_line(self, workspace, capsys,
                                                            monkeypatch):
        def broken(*args):
            raise RuntimeError("split exploded")

        monkeypatch.setattr(cli, "stratified_split", broken)
        assert run("ingest", "--config", "cfg.json") == 2
        assert capsys.readouterr().err == "InternalError: RuntimeError: split exploded\n"

    def test_damaged_split_manifest_is_a_user_error(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        manifest = workspace / "work" / "splits" / "train.manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:20])
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "splits", "train.manifest.json") in err

    def test_damaged_scores_file_is_a_user_error(self, workspace, capsys):
        scores = workspace / "work" / "runs" / "toy__normal__frozen" / "scores.json"
        scores.parent.mkdir(parents=True)
        scores.write_text('{"model_id": "toy", "cond', encoding="utf-8")
        assert run("report", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "runs", "toy__normal__frozen", "scores.json") in err

    @pytest.mark.parametrize("edit", [
        lambda tasks: {"type": tasks["type"]},
        lambda tasks: {**tasks, "type": {**tasks["type"], "accuracy": "0.5"}},
        lambda tasks: {**tasks, "severity": {**tasks["severity"], "accuracy": float("nan")}},
    ], ids=["severity-missing", "accuracy-string", "accuracy-nan"])
    def test_scores_file_without_a_task_s_accuracy_is_a_user_error(self, workspace, capsys,
                                                                   edit):
        task = {"task": "?", "accuracy": 0.5, "balanced_accuracy": 0.5, "n": 2,
                "confusion": [[1, 0], [1, 0]]}
        tasks = {t: {**task, "task": t} for t in trainer.TASKS}
        scores = workspace / "work" / "runs" / "toy__normal__frozen" / "scores.json"
        scores.parent.mkdir(parents=True)
        cell = {"model_id": "toy", "condition": "normal", "fine_tuned": False,
                "best_epoch": None}
        scores.write_text(json.dumps({**cell, "tasks": tasks}), encoding="utf-8")
        assert run("report", "--config", "cfg.json") == 0
        scores.write_text(json.dumps({**cell, "tasks": edit(tasks)}), encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "runs", "toy__normal__frozen", "scores.json") in err

    @pytest.mark.parametrize("identity", [{"model_id": ["toy"]}, {"condition": 5},
                                          {"fine_tuned": "no"}],
                             ids=["model_id-list", "condition-int", "fine_tuned-string"])
    def test_scores_file_with_a_bad_cell_identity_is_a_user_error(self, workspace, capsys,
                                                                  identity):
        task = {"accuracy": 0.5, "balanced_accuracy": 0.5, "n": 2, "confusion": [[1, 0], [1, 0]]}
        scores = workspace / "work" / "runs" / "toy__normal__frozen" / "scores.json"
        scores.parent.mkdir(parents=True)
        scores.write_text(json.dumps({
            "model_id": "toy", "condition": "normal", "fine_tuned": False, "best_epoch": None,
            "tasks": {t: {**task, "task": t} for t in trainer.TASKS}, **identity}),
            encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "runs", "toy__normal__frozen", "scores.json") in err

    def test_a_csv_corpus_with_an_over_long_field_is_a_user_error(self, workspace, capsys):
        corpus = workspace / "data" / "corpus.csv"
        corpus.write_text("id,text,age,gender,type,severity\n"
                          f"c1,{'ح' * 200_000},,,acute,mild\n", encoding="utf-8")
        (workspace / "data" / "corpus.manifest.json").write_text(json.dumps(
            {"schema_version": 1, "vocab": {"type": ["chronic", "acute"],
                                            "severity": ["mild", "severe"]}}))
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json", "--corpus", str(corpus)) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ") and str(corpus) in err

    def test_missing_config_file(self, workspace, capsys):
        assert run("ingest", "--config", "nope.json") == 1
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_invalid_config_json(self, workspace, capsys):
        (workspace / "bad.json").write_text("{not json", encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 1
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_unknown_config_key(self, workspace, capsys):
        (workspace / "bad.json").write_text(json.dumps({"trian": {}}), encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 1

    @pytest.mark.parametrize("config, named", [
        ({"corpus": ["x"]}, "corpus must be str"),
        ({"corpus": "data/corpus.jsonl", "workdir": 5}, "workdir must be str"),
        ([1, 2], "bad.json must hold a JSON object"),
        ({"gateway": 5}, "'gateway' must be an object"),
    ], ids=["corpus-list", "workdir-int", "not-an-object", "gateway-int"])
    def test_config_of_a_wrong_shape_is_a_config_error(self, workspace, capsys,
                                                       config, named):
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ") and named in err

    @pytest.mark.parametrize("toy, named", [({"n_heads": 0}, "n_heads"),
                                            ({"d_model": -4}, "d_model"),
                                            ({"vocab_size": 3}, "vocab_size"),
                                            ({"n_layers": 0}, "n_layers")],
                             ids=["n_heads-0", "d_model-negative", "vocab_size-3", "n_layers-0"])
    def test_a_toy_shape_no_encoder_has_is_a_user_error(self, workspace, capsys, toy, named):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config["model"]["toy"].update(toy)
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 0
        assert run("variants", "--config", "bad.json", "--condition", "normal") == 0
        capsys.readouterr()
        assert run("train", "--config", "bad.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("ShapeMismatch: ") and named in err

    def test_an_adapter_target_that_matches_nothing_shows_a_real_name(self, workspace, capsys):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config.setdefault("adapter", {})["targets"] = ["attn.query"]   # an older spelling
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 0
        assert run("variants", "--config", "bad.json", "--condition", "normal") == 0
        capsys.readouterr()
        assert run("train", "--config", "bad.json", "--condition", "normal") == 1
        err = capsys.readouterr().err
        assert err.startswith("ShapeMismatch: ") and "'attn.query'" in err
        assert "'encoder.layer.0.attention.self.query'" in err

    @pytest.mark.parametrize("section, value, named", [
        ("model", {"toy": {"seed": 3}}, "'model.toy': ['seed']"),
        ("model", {"toy": {"pooling": "mean"}}, "'model.toy': ['pooling']"),
        ("model", {"toy": {"d_modle": 32}}, "'model.toy': ['d_modle']"),
        # removed keys, refused even at the one value they could take
        ("model", {"pooling": "cls"}, "model.pooling"),
        ("train", {"loss_mode": "class_weighted"}, "train.loss_mode"),
        ("train", {"tasks": ["type", "severity"]}, "train.tasks"),
        ("split", {"stratify_task": "type"}, "split.stratify_task"),
        ("train", {"weight_decay": 0.01}, "train.weight_decay"),
        ("train", {"warmup_frac": 0.1}, "train.warmup_frac"),
        ("corpus_format", "jsonl", "corpus_format"),
        ("split", {"stratify_task": "foo"}, "split.stratify_task"),
        ("split", {"stratify_task": "diagnosis"}, "split.stratify_task"),
        ("adapter", {"targets": ["attn.query", "["]}, "adapter.targets: '['"),
    ], ids=["toy-seed", "toy-pooling", "toy-typo", "pooling", "loss_mode", "tasks",
            "stratify-type", "weight_decay", "warmup_frac", "corpus_format",
            "stratify-unknown", "stratify-diagnosis", "target-not-a-regex"])
    def test_config_value_deep_code_rejects_is_a_config_error(self, workspace, capsys,
                                                              section, value, named):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        config[section] = value
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ")
        assert named in err

    @pytest.mark.parametrize("key, value", [
        ("train.batch_size", "4"),
        ("train.learning_rate", True),
        ("adapter.rank", "8"),
        ("model.toy.d_model", "16"),
        ("gateway.rate_per_sec", 0),
        ("gateway.burst", 0.5),
        ("gateway.max_retries", -1),
        ("gateway.backoff_base", -1),
        ("gateway.backoff_cap", -0.5),
        ("split.seed", -1),
        ("adapter.seed", -1),
        ("train.seed", -1),
        ("model.seed", -1),
        ("model.head_seed", -1),
        ("adapter.rank", 0),
        ("adapter.dropout", 1.0),
        ("model.toy", []),
    ])
    def test_config_value_of_a_wrong_type_or_range_is_a_config_error(self, workspace, capsys,
                                                                      key, value):
        config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
        node = config
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ")
        assert key in err

    def test_ingest_without_the_manifest_is_malformed(self, workspace, capsys):
        (workspace / "data" / "corpus.manifest.json").unlink()
        assert run("ingest", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedRecord: ")
        assert str(Path("data", "corpus.manifest.json")) in err

    def test_missing_corpus(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json", "--corpus", "missing.jsonl") == 1
        assert "MissingUpstreamArtifact" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error(self, workspace, capsys):
        (workspace / "bad.json").write_bytes(b'{"workdir": "\xff"}')
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ")
        assert "bad.json" in err

    @pytest.mark.parametrize("line", ['["not", "an", "object"]', '"just a string"'],
                             ids=["list", "string"])
    def test_a_corpus_line_that_is_not_an_object_is_malformed(self, workspace, capsys, line):
        corpus = workspace / "data" / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus.write_text("".join([lines[0], line + "\n", *lines[1:]]), encoding="utf-8")
        assert run("ingest", "--config", "cfg.json") == 1
        assert capsys.readouterr().err == \
            "MalformedRecord: data/corpus.jsonl, line 2: bad field 'json': must be an object\n"

    def test_a_split_line_that_is_not_an_object_is_malformed(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        split = workspace / "work" / "splits" / "val.jsonl"
        lines = split.read_text(encoding="utf-8").splitlines(keepends=True)
        split.write_text("".join(['["not", "an", "object"]\n', *lines[1:]]), encoding="utf-8")
        capsys.readouterr()
        assert run("preprocess", "--config", "cfg.json") == 1
        val = os.path.join("work", "splits", "val.jsonl")
        assert capsys.readouterr().err == \
            f"MalformedRecord: {val}, line 1: bad field 'json': must be an object\n"

    def test_a_split_manifest_without_a_vocabulary_names_its_file(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        manifest = workspace / "work" / "splits" / "test.manifest.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        del data["vocab"]["type"]
        manifest.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("preprocess", "--config", "cfg.json") == 1
        name = os.path.join("work", "splits", "test.manifest.json")
        assert capsys.readouterr().err == \
            f"MalformedRecord: {name}, line 0: bad field 'vocab.type': missing vocabulary\n"

    @pytest.mark.parametrize("stage, before, path, kind", [
        ("preprocess", [("ingest",)], "cache/responses.jsonl", "directory"),
        ("variants", [("ingest",)], "bundles/bundles.jsonl", "directory"),
        ("ingest", [], "splits/.state.json", "directory"),
        ("report", [("ingest",), ("variants", "--condition", "normal"),
                    ("train", "--condition", "normal", "--no-finetune")],
         "reports/report.md", "directory"),
        ("ingest", [], "splits", "file"),
    ], ids=["response-cache", "bundle-log", "state", "report", "splits-directory"])
    def test_a_path_of_the_wrong_kind_is_a_user_error_naming_it(self, workspace, capsys,
                                                                stage, before, path, kind):
        for argv in before:
            assert run(*argv, "--config", "cfg.json") == 0
        target = workspace / "work" / path
        target.parent.mkdir(parents=True, exist_ok=True)
        if kind == "directory":
            target.mkdir()
        else:
            target.write_bytes(b"")
        capsys.readouterr()
        assert run(stage, "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ") and os.path.join("work", path) in err, err
        assert ".tmp." not in err

    def test_a_config_path_that_is_a_directory_is_a_config_error(self, workspace, capsys):
        (workspace / "conf.d").mkdir()
        assert run("ingest", "--config", "conf.d") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ") and "conf.d" in err

    def test_a_corpus_path_that_is_a_directory_is_a_user_error(self, workspace, capsys):
        data = workspace / "data"
        (data / "dir.jsonl").mkdir()
        shutil.copy(data / "corpus.manifest.json", data / "dir.manifest.json")
        assert run("ingest", "--config", "cfg.json", "--corpus", "data/dir.jsonl") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ") and "data/dir.jsonl" in err

    def test_a_manifest_that_is_a_directory_is_a_user_error(self, workspace, capsys):
        manifest = workspace / "data" / "corpus.manifest.json"
        manifest.unlink()
        manifest.mkdir()
        assert run("ingest", "--config", "cfg.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert str(Path("data", "corpus.manifest.json")) in err

    def test_unknown_condition_is_a_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            run("variants", "--config", "cfg.json", "--condition", "bogus")
        assert exc.value.code == 1
        assert "UsageError: " in capsys.readouterr().err

    def test_usage_error_exits_one(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--config", "cfg.json", "--condition", "nonsense")
        assert exc.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0


def test_importing_the_cli_does_not_import_scipy():
    """scipy is imported on first GELU; the stages that never run the encoder
    start without its import time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, medcascade.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
