import json

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

    def test_removed_gateway_extra_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gateway": {"extra": {}}}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 0}}))
        with pytest.raises(ConfigInvalid):
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
