import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from medcascade import cli, evaluator, gateway, trainer
from medcascade.cli import _up_to_date, main
from medcascade.synthetic import write_synthetic_corpus
from medcascade.variants import load_variant


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


class TestIdempotence:
    def test_rerun_short_circuits(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json") == 0
        assert "up to date" in capsys.readouterr().out
        assert run("preprocess", "--config", "cfg.json") == 0
        assert "0 gateway calls" in capsys.readouterr().out

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
        # a crash after the first two bundles, before the completion state
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

    def test_mock_preprocess_creates_three_files(self, workspace):
        """One log per store, not one file per completion or bundle."""
        corpus = Path(__file__).resolve().parents[1] / "data" / "synthetic" / "corpus.jsonl"
        assert run("ingest", "--config", "cfg.json", "--corpus", str(corpus)) == 0
        assert run("preprocess", "--config", "cfg.json", "--corpus", str(corpus)) == 0
        work = workspace / "work"
        created = sorted(str(p.relative_to(work)) for p in work.rglob("*")
                         if p.is_file() and p.parts[len(work.parts)] != "splits")
        assert created == [".preprocess.state.json", os.path.join("bundles", "bundles.jsonl"),
                           os.path.join("cache", "responses.jsonl")]
        assert (work / "bundles" / "bundles.jsonl").read_bytes().count(b"\n") == 200


    @pytest.mark.parametrize("state", [b'{"input_ha', b"[]", b"\xff\xfe"],
                             ids=["truncated", "not-object", "not-utf8"])
    def test_unreadable_state_is_stale(self, tmp_path, state):
        path = tmp_path / ".state.json"
        path.write_bytes(state)
        assert not _up_to_date(str(path), "abc", [str(tmp_path)])

    def test_ingest_redoes_work_when_state_is_truncated(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        state = workspace / "work" / "splits" / ".state.json"
        state.write_text('{"input_hash": "ab', encoding="utf-8")
        capsys.readouterr()
        assert run("ingest", "--config", "cfg.json") == 0
        assert "up to date" not in capsys.readouterr().out
        assert json.loads(state.read_text(encoding="utf-8"))["input_hash"]

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
        (workspace / "one_term.txt").write_text("fever\n", encoding="utf-8")
        assert run("ingest", "--config", "cfg.json") == 0

        def preprocess(lexicon):
            config = json.loads((workspace / "cfg.json").read_text(encoding="utf-8"))
            config["gateway"] = {"backend": "mock", "lexicon_path": lexicon}
            (workspace / "lex.json").write_text(json.dumps(config), encoding="utf-8")
            capsys.readouterr()
            assert run("preprocess", "--config", "lex.json") == 0
            return "up to date" in capsys.readouterr().out

        assert [preprocess(p) for p in ("", "", "one_term.txt")] == [False, True, False]

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
        monkeypatch.setattr(gateway._HTTPBackend, "_post", lambda self, body: answer)
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
        hashed = []
        real = cli._hash_inputs
        monkeypatch.setattr(cli, "_hash_inputs",
                            lambda files, *values: hashed.append(files) or real(files, *values))
        assert run("train", "--config", "cfg.json", "--condition", "normal", "--no-finetune") == 0
        package = os.path.dirname(os.path.abspath(cli.__file__))
        modules = {os.path.join(package, name) for name in os.listdir(package)
                   if name.endswith(".py")}
        assert modules <= set(hashed[0])   # the cell's input hash


class TestStageState:
    def test_each_variant_condition_keeps_its_own_state(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        capsys.readouterr()
        outputs = []
        for argv in ((), ("--condition", "normal"), ()):
            assert run("variants", "--config", "cfg.json", *argv) == 0
            outputs.append(capsys.readouterr().out)
        assert "wrote 4 condition(s)" in outputs[0]
        assert outputs[1:] == ["variants: up to date\n"] * 2

    def test_only_the_stale_conditions_are_built(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("preprocess", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json") == 0
        (workspace / "work" / "variants" / "ner" / "test.jsonl").unlink()
        capsys.readouterr()
        assert run("variants", "--config", "cfg.json") == 0
        assert "wrote 1 condition(s)" in capsys.readouterr().out

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
        h = hashlib.sha256(hashlib.sha256(data).digest())
        h.update(b"\x00")
        h.update(b"7")
        h.update(b"\x00")
        assert cli._hash_inputs([str(path)], 7) == h.hexdigest()


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


CHAIN = [("ingest",), ("preprocess", "--backend", "mock"), ("variants", "--condition", "ner"),
         ("train", "--condition", "ner"), ("train", "--condition", "ner", "--no-finetune"),
         ("report",)]
FINETUNED = "runs/toy__ner__finetuned"
# one output of each kind, and the line of the stage that writes it
DAMAGED = {
    "splits/test.jsonl": "ingest:",
    "splits/train.manifest.json": "ingest:",
    "bundles/bundles.jsonl": "preprocess:",
    "variants/ner/train.jsonl": "variants:",
    "variants/ner/test.provenance.json": "variants:",
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
        weights = os.path.join("weights", "weights.npz")
        opens, loads = [], []
        real_open, real_load = builtins.open, np.load
        monkeypatch.setattr(builtins, "open", lambda f, *a, **k: (
            opens.append(1) if os.fspath(f) == weights else None) or real_open(f, *a, **k))
        monkeypatch.setattr(np, "load", lambda f, *a, **k: (
            loads.append(1) if os.fspath(f) == weights else None) or real_load(f, *a, **k))
        counts = []
        for arm in ((), ("--no-finetune",)):
            opens.clear()
            loads.clear()
            assert run("train", "--config", config, "--condition", "normal", *arm) == 0
            counts.append((len(opens), len(loads)))
        # the first cell hashes the export and copies it into the store; the
        # second only hashes it, and maps the stored base
        assert counts == [(2, 1), (1, 0)]
        assert [p.suffix for p in (workspace / "work" / "encoders").iterdir()] == [".npy"]

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

    def test_an_export_that_misses_a_parameter_is_a_user_error(self, workspace, capsys):
        import numpy as np
        from medcascade.encoder import build_toy_encoder
        build_toy_encoder(seed=5).save_base("export_dir")
        weights = workspace / "export_dir" / "weights.npz"
        with np.load(weights) as data:
            arrays = {name: data[name] for name in data.files
                      if name != "layer.1.ffn.inner.W"}
        np.savez(weights, **arrays)
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
        assert "layer.1.ffn.inner.W" in err and "export_dir" in err


class TestPredictionPass:
    @pytest.mark.parametrize("arm", [[], ["--no-finetune"]], ids=["finetuned", "frozen"])
    def test_train_predicts_the_test_set_once(self, workspace, monkeypatch, arm):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        test_texts = [ex.input_text
                      for ex in load_variant("work/variants", "normal", "test").examples]
        on_test_set = []
        for module in (trainer, evaluator):
            def counting(model, texts, *args, _predict=module.predict, **kwargs):
                on_test_set.append(list(texts) == test_texts)
                return _predict(model, texts, *args, **kwargs)
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

    @pytest.mark.parametrize("damaged", ["test.jsonl", "test.provenance.json"])
    def test_damaged_variant_file_is_a_user_error(self, workspace, capsys, damaged):
        assert run("ingest", "--config", "cfg.json") == 0
        assert run("variants", "--config", "cfg.json", "--condition", "normal") == 0
        path = workspace / "work" / "variants" / "normal" / damaged
        path.write_bytes(path.read_bytes()[:-7])
        capsys.readouterr()
        assert run("train", "--config", "cfg.json", "--condition", "normal",
                   "--no-finetune") == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptArtifact: ")
        assert os.path.join("work", "variants", "normal", damaged) in err

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
    ], ids=["corpus-list", "workdir-int", "not-an-object"])
    def test_config_of_a_wrong_shape_is_a_config_error(self, workspace, capsys,
                                                       config, named):
        (workspace / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ") and named in err

    @pytest.mark.parametrize("toy, named", [({"n_heads": 0}, "n_heads"),
                                            ({"d_model": -4}, "d_model"),
                                            ({"vocab_size": 3}, "vocab_size")],
                             ids=["n_heads-0", "d_model-negative", "vocab_size-3"])
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

    @pytest.mark.parametrize("section, value, named", [
        ("model", {"toy": {"seed": 3}}, "'model.toy': ['seed']"),
        ("model", {"toy": {"pooling": "mean"}}, "'model.toy': ['pooling']"),
        ("model", {"toy": {"d_modle": 32}}, "'model.toy': ['d_modle']"),
        # removed keys, refused even at the one value they could take
        ("model", {"pooling": "cls"}, "model.pooling"),
        ("train", {"loss_mode": "class_weighted"}, "train.loss_mode"),
        ("train", {"tasks": ["type", "severity"]}, "train.tasks"),
        ("split", {"stratify_task": "type"}, "split.stratify_task"),
        ("corpus_format", "jsonl", "corpus_format"),
        ("split", {"stratify_task": "foo"}, "split.stratify_task"),
        ("split", {"stratify_task": "diagnosis"}, "split.stratify_task"),
        ("adapter", {"targets": ["attn.query", "["]}, "adapter.targets: '['"),
    ], ids=["toy-seed", "toy-pooling", "toy-typo", "pooling", "loss_mode", "tasks",
            "stratify-type", "corpus_format", "stratify-unknown", "stratify-diagnosis",
            "target-not-a-regex"])
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

    def test_missing_corpus(self, workspace, capsys):
        assert run("ingest", "--config", "cfg.json", "--corpus", "missing.jsonl") == 1
        assert "MissingUpstreamArtifact" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error(self, workspace, capsys):
        (workspace / "bad.json").write_bytes(b'{"workdir": "\xff"}')
        assert run("ingest", "--config", "bad.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: ")
        assert "bad.json" in err

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
