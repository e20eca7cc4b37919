import functools
import json
import re
import tomllib
from pathlib import Path

import pytest

from medcascade.config import PipelineConfig, load_config
from medcascade.errors import ConfigInvalid


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.train.batch_size == 4
        assert cfg.train.epochs == 25
        assert cfg.train.learning_rate == 2e-3   # desk-scale toy default
        assert cfg.adapter.rank == 16
        assert cfg.adapter.alpha == 8.0
        assert cfg.adapter.dropout == 0.05
        assert cfg.model.backend_id == "toy"

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workdir": "w2", "train": {"epochs": 3}}))
        cfg = load_config(path)
        assert cfg.workdir == "w2"
        assert cfg.train.epochs == 3
        assert cfg.train.batch_size == 4            # untouched default
        assert cfg.train.learning_rate == 2e-3      # kept for partial sections

    def test_flag_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workdir": "from_file"}))
        cfg = load_config(path, {"workdir": "from_flag", "train.seed": 99})
        assert cfg.workdir == "from_flag"
        assert cfg.train.seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trian": {"epochs": 1}}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epoch": 1}}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_the_mock_lexicon_is_not_a_config_key(self, tmp_path):
        # the mock reads its bundled lexicon; the key that pointed elsewhere is gone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gateway": {"lexicon_path": "terms.txt"}}))
        with pytest.raises(ConfigInvalid, match="gateway.lexicon_path"):
            load_config(path)

    def test_removed_gateway_extra_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gateway": {"extra": {}}}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_override_into_a_section_that_is_not_an_object_is_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gateway": "x"}))
        with pytest.raises(ConfigInvalid, match="'gateway' must be an object"):
            load_config(path, {"gateway.backend": "mock"})

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 0}}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_unknown_corpus_format_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corpus_format": "xml"}))
        with pytest.raises(ConfigInvalid, match="corpus_format"):
            load_config(path)

    @pytest.mark.parametrize("ratios", [[0.8, 0.2, 0.0], [0.9, 0.2, -0.1], [0.8, 0.1, 0.05],
                                        [0.8, 0.1, "0.1"]])
    def test_bad_split_ratios_rejected(self, tmp_path, ratios):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"split": {"ratios": ratios}}))
        with pytest.raises(ConfigInvalid, match="split.ratios"):
            load_config(path)

    @pytest.mark.parametrize("targets", ["attn.query", {"attn.query": 1}])
    def test_adapter_targets_must_be_a_list(self, tmp_path, targets):
        # a string would be iterated per character, and "." adapts every matrix
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"adapter": {"targets": targets}}))
        with pytest.raises(ConfigInvalid, match="adapter.targets must be a list"):
            load_config(path)

    def test_derived_paths_under_workdir(self):
        cfg = PipelineConfig(workdir="w")
        assert cfg.splits_dir().startswith("w")
        assert cfg.bundles_dir().startswith("w")
        assert cfg.variants_dir().startswith("w")
        assert cfg.runs_dir().startswith("w")
        assert cfg.cache_dir().startswith("w")

    def test_serializes_round_trip(self):
        data = PipelineConfig().to_json()
        assert json.loads(json.dumps(data)) == data

    def test_every_key_set_to_its_default_gives_the_defaults(self):
        default = PipelineConfig().to_json()
        leaves = dict(_leaves(default))
        assert {"workdir", "split.ratios", "gateway.backend", "model.toy"} <= set(leaves)
        for key, value in leaves.items():
            cfg = load_config(None, {key: value})
            assert cfg.to_json() == default, key
            if isinstance(value, list):   # JSON's list is the config's tuple
                assert isinstance(functools.reduce(getattr, key.split("."), cfg), tuple), key


def _leaves(data: dict, prefix: str = ""):
    """(dotted key, value) of each leaf of a config's JSON form; an empty
    object, such as ``model.toy``, is a leaf."""
    for key, value in data.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


ROOT = Path(__file__).resolve().parents[1]


def test_readme_config_block_is_the_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    block = re.sub(r"//[^\n]*", "", block)
    assert json.loads(block) == PipelineConfig().to_json()


def test_requires_python_covers_the_stdlib_the_package_uses():
    # atomic.file_digest calls hashlib.file_digest, new in Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["requires-python"] == ">=3.11"
