"""Pipeline configuration: one JSON file and flag overrides.

Precedence is flags > file > defaults; ``load_config`` reads no environment.
The only environment overrides are ``MEDCASCADE_LLM_URL`` and
``MEDCASCADE_LLM_KEY``, which ``gateway.build_gateway`` applies to a live
backend.  The resolved config is embedded into every run manifest so each
artifact can be reproduced from its manifest alone.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field, is_dataclass, replace

from .atomic import check_types
from .encoder import EncoderConfig
from .errors import ConfigInvalid
from .gateway import GatewayConfig
from .lora import DEFAULT_ALPHA, DEFAULT_DROPOUT, DEFAULT_RANK, DEFAULT_TARGET_PATTERNS
from .trainer import TrainConfig

# suits the desk-scale toy encoder; full-size encoders want ~2e-4 (TrainConfig's default)
DESK_LEARNING_RATE = 2e-3


@dataclass
class SplitConfig:
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 7


@dataclass
class AdapterConfig:
    rank: int = DEFAULT_RANK
    alpha: float = DEFAULT_ALPHA
    dropout: float = DEFAULT_DROPOUT
    targets: tuple[str, ...] = DEFAULT_TARGET_PATTERNS
    seed: int = 12


@dataclass
class ModelConfig:
    backend_id: str = "toy"
    weights_dir: str = ""
    seed: int = 11
    head_seed: int = 13
    toy: dict = field(default_factory=dict)   # EncoderConfig overrides for the toy


@dataclass
class PipelineConfig:
    corpus: str = "data/synthetic/corpus.jsonl"   # read as CSV if it ends in .csv
    workdir: str = "work"
    split: SplitConfig = field(default_factory=SplitConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(learning_rate=DESK_LEARNING_RATE))
    model: ModelConfig = field(default_factory=ModelConfig)

    # -- derived paths ----------------------------------------------------

    def splits_dir(self) -> str:
        return os.path.join(self.workdir, "splits")

    def bundles_dir(self) -> str:
        return os.path.join(self.workdir, "bundles")

    def variants_dir(self) -> str:
        return os.path.join(self.workdir, "variants")

    def runs_dir(self) -> str:
        return os.path.join(self.workdir, "runs")

    def reports_dir(self) -> str:
        return os.path.join(self.workdir, "reports")

    def encoders_dir(self) -> str:
        """Encoder bases, random or exported, shared by the cells of a
        workdir: a cache, not an output, so deleting it is safe."""
        return os.path.join(self.workdir, "encoders")

    def cache_dir(self) -> str:
        return self.gateway.cache_dir or os.path.join(self.workdir, "cache")

    def to_json(self) -> dict:
        """The config as JSON values: each section an object, each tuple a list."""
        return asdict(self, dict_factory=lambda items: {
            key: list(value) if isinstance(value, tuple) else value for key, value in items})

    def validate(self) -> None:
        try:
            self.train.validate()
        except ValueError as e:
            raise ConfigInvalid(str(e)) from e
        ratios = self.split.ratios
        if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3 and all(
                isinstance(r, (int, float)) and not isinstance(r, bool) and r > 0
                for r in ratios)):
            raise ConfigInvalid(f"split.ratios must be 3 positive numbers, got {ratios!r}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigInvalid(f"split.ratios must sum to 1, got {ratios!r}")
        if self.adapter.rank < 1:
            raise ConfigInvalid("adapter.rank must be >= 1")
        if not 0.0 <= self.adapter.dropout < 1.0:
            raise ConfigInvalid("adapter.dropout must be in [0, 1)")
        for pattern in self.adapter.targets:
            try:
                re.compile(pattern)
            except (re.error, TypeError) as e:
                raise ConfigInvalid(f"adapter.targets: {pattern!r} is not a regular "
                                    f"expression ({e})") from e
        for key in ("split.seed", "adapter.seed", "train.seed", "model.seed", "model.head_seed"):
            section, name = key.split(".")
            seed = getattr(getattr(self, section), name)
            if seed < 0:   # numpy takes no negative seed
                raise ConfigInvalid(f"{key} must be >= 0, got {seed}")
        toy_keys = set(EncoderConfig.__dataclass_fields__) - {"seed"}   # model.seed sets it
        if not isinstance(self.model.toy, dict):
            raise ConfigInvalid("model.toy must be an object")
        unknown = set(self.model.toy) - toy_keys
        if unknown:
            raise ConfigInvalid(f"unknown keys in 'model.toy': {sorted(unknown)}")
        _check_types(EncoderConfig, self.model.toy, "model.toy.")
        gw = self.gateway
        if not gw.rate_per_sec > 0:
            raise ConfigInvalid(f"gateway.rate_per_sec must be > 0, got {gw.rate_per_sec}")
        if not gw.burst >= 1:  # a bucket capped below one token never pays out
            raise ConfigInvalid(f"gateway.burst must be >= 1, got {gw.burst}")
        for key in ("max_retries", "backoff_base", "backoff_cap"):
            if getattr(gw, key) < 0:
                raise ConfigInvalid(f"gateway.{key} must be >= 0, got {getattr(gw, key)}")


def _check_types(cls, data: dict, prefix: str = "") -> None:
    try:
        check_types(cls, data)
    except TypeError as e:
        raise ConfigInvalid(f"{prefix}{e}") from e


def _merge(default, data: dict, prefix: str = ""):
    """``default`` with the values of ``data`` in place of its own.  A field
    whose default is a dataclass is a section, merged the same way from an
    object; one whose default is a tuple takes a list."""
    unknown = set(data) - set(default.__dataclass_fields__)
    if unknown:
        raise ConfigInvalid(f"unknown config keys {sorted(prefix + k for k in unknown)}")
    kwargs = {}
    for key, value in data.items():
        current = getattr(default, key)
        if is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigInvalid(f"section {key!r} must be an object")
            value = _merge(current, value, f"{prefix}{key}.")
        else:
            _check_types(type(default), {key: value}, prefix)
            if isinstance(current, tuple):   # JSON has no tuple: a list
                value = tuple(value)
        kwargs[key] = value
    return replace(default, **kwargs)


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Build the config from (optional) file plus flat override dict.

    Override keys use dotted paths, e.g. {"gateway.backend": "mock",
    "train.epochs": 2}.
    """
    raw: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:  # missing, or a directory
            raise ConfigInvalid(f"config file {path} cannot be read: {e.strerror}") from e
        except ValueError as e:  # not JSON, or not UTF-8
            raise ConfigInvalid(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigInvalid(f"config file {path} must hold a JSON object")

    for key, value in (overrides or {}).items():
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"section {part!r} must be an object")
        node[parts[-1]] = value

    cfg = _merge(PipelineConfig(), raw)
    cfg.validate()
    return cfg
