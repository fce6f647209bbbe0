"""Run configuration: one flat dataclass, INI-style files, key=value overrides."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .data import SYNTH_ALIASES, SYNTH_KINDS
from .metrics import SEASONALITY


class ConfigError(Exception):
    """Unknown keys, unparsable values, or inconsistent settings."""


VARIANTS = ("full", "v1_no_align", "v2_prefix_prompt", "v3_static_lora", "v4_frozen")
ROUTED_VARIANTS = ("full", "v1_no_align", "v2_prefix_prompt")  # adapters gated by routers
PRETRAIN_MODES = ("random_frozen", "pretrain_then_freeze")
ROUTER_ACTIVATIONS = ("tanh", "identity")
TRUNK_DTYPES = ("float64", "float32")  # what the frozen trunk stores and computes in


@dataclass
class RunConfig:
    # data
    data_kind: str = "synthetic"  # or "csv"
    csv_path: str = ""
    date_column: str = "date"
    synthetic: str = "sine_mixture"
    channels: int = 3
    length: int = 2000
    noise: float = 0.0
    frequency: str = "hourly"
    train_frac: float = 0.7
    val_frac: float = 0.1
    lookback: int = 64
    horizon: int = 16
    stride: int = 1
    few_shot: float = 1.0
    global_standardize: bool = False
    dataset_name: str = ""
    # model
    dim: int = 64
    layers: int = 4
    heads: int = 4
    ffn_dim: int = 256
    align_heads: int = 4
    rank: int = 8
    n_active: int = 4
    prompt_buckets: int = 64
    prompt_max_tokens: int = 32
    prompt_template: str = "forecast {dataset} horizon {horizon} frequency {frequency}"
    router_activation: str = "tanh"
    causal_mask: bool = False
    pretrain_mode: str = "random_frozen"
    pretrain_steps: int = 100
    trunk_dtype: str = "float64"
    normalize: bool = True
    variant: str = "full"
    # training
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 20
    lambda_lb: float = 0.01
    loss_kind: str = "mse"
    seed: int = 0
    patience: int = 3  # early stop on val mse; inactive without a val split
    clip_norm: float = 5.0

    def validate(self) -> "RunConfig":
        for key, kind in _FIELDS.items():
            value = getattr(self, key)
            if not isinstance(value, _TYPES[kind]) or (kind != "bool" and isinstance(value, bool)):
                raise ConfigError(f"{key} must be of type {kind}, got {value!r}")
        for key, allowed in (("variant", VARIANTS), ("data_kind", ("synthetic", "csv")),
                             ("synthetic", SYNTH_KINDS + tuple(SYNTH_ALIASES)),
                             ("frequency", tuple(SEASONALITY)),
                             ("loss_kind", ("mse", "smape")),
                             ("pretrain_mode", PRETRAIN_MODES),
                             ("router_activation", ROUTER_ACTIVATIONS),
                             ("trunk_dtype", TRUNK_DTYPES)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got '{getattr(self, key)}'")
        if self.data_kind == "csv" and not self.csv_path:
            raise ConfigError("data_kind=csv requires csv_path")
        for key, low in (("channels", 1), ("length", 2), ("stride", 1), ("lookback", 1),
                         ("horizon", 1), ("layers", 1), ("pretrain_steps", 0),
                         ("batch_size", 1), ("epochs", 1), ("patience", 0), ("seed", 0),
                         ("prompt_buckets", 1), ("prompt_max_tokens", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("heads", "align_heads"):
            heads = getattr(self, key)
            if self.dim < 1 or heads < 1 or self.dim % heads != 0:
                raise ConfigError(f"{key} ({heads}) must divide dim ({self.dim})")
        max_rank = min(self.dim, self.ffn_dim) // 2
        if not (1 <= self.rank <= max_rank):
            raise ConfigError(
                f"rank must be in [1, min(dim, ffn_dim) // 2 = {max_rank}], got {self.rank}"
            )
        if not (1 <= self.n_active <= 7):
            raise ConfigError(f"n_active must be in [1, 7], got {self.n_active}")
        if not (self.train_frac > 0 and self.val_frac >= 0
                and self.train_frac + self.val_frac <= 1.0 + 1e-9):
            raise ConfigError(
                f"need train_frac > 0, val_frac >= 0 and train_frac + val_frac <= 1, "
                f"got {self.train_frac} and {self.val_frac}"
            )
        if not (0.0 < self.few_shot <= 1.0):
            raise ConfigError(f"few_shot must be in (0, 1], got {self.few_shot}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        for key in ("noise", "weight_decay", "lambda_lb"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not self.clip_norm >= 0:  # inf never clips
            raise ConfigError(f"clip_norm must be >= 0, got {self.clip_norm}")
        try:
            words = self.prompt_text().split()
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(
                f"prompt_template '{self.prompt_template}' does not format ({e!r}); "
                "it may use {dataset}, {horizon} and {frequency}"
            ) from None
        if not words:
            raise ConfigError(f"prompt_template '{self.prompt_template}' renders an empty prompt")
        return self

    def prompt_text(self) -> str:
        """The prompt the template renders for this run's data."""
        dataset = self.dataset_name or (
            self.synthetic if self.data_kind == "synthetic" else "series"
        )
        return self.prompt_template.format(
            dataset=dataset, horizon=self.horizon, frequency=self.frequency
        )


# Named starting points. desk is the dataclass default; main_text and
# appendix size the trunk at the two larger reference scales and run it in
# float32, where its GEMMs take about half the float64 time.
PRESETS = {
    "desk": {},
    "appendix": {
        "layers": 8, "dim": 512, "heads": 8, "ffn_dim": 2048, "align_heads": 8,
        "rank": 8, "n_active": 4, "lookback": 512, "horizon": 96,
        "lr": 1e-3, "batch_size": 16, "epochs": 20, "loss_kind": "mse",
        "trunk_dtype": "float32",
    },
    "main_text": {
        "layers": 8, "dim": 512, "heads": 8, "ffn_dim": 2048, "align_heads": 8,
        "rank": 4, "n_active": 4, "lookback": 96, "horizon": 48,
        "lr": 1e-2, "batch_size": 32, "epochs": 30, "loss_kind": "smape",
        "trunk_dtype": "float32",
    },
}

_FIELDS = {f.name: f.type for f in fields(RunConfig)}
# values each annotation accepts; a bool passes only as a bool
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: '{raw}'")
        return raw
    except ValueError as e:
        raise ConfigError(f"key '{key}': {e}") from None


def _check_key(key: str) -> None:
    if key not in _FIELDS:
        known = ", ".join(sorted(_FIELDS))
        raise ConfigError(f"unknown config key '{key}'; valid keys: {known}")


def load_config_file(path) -> dict:
    """Parse an INI-style file into a flat key/value dict (sections are cosmetic)."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    out = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in out:
                raise ConfigError(f"{path}: duplicate key '{key}'")
            out[key] = value
    return out


def build_config(file_values: dict | None = None, overrides: dict | None = None,
                 preset: str | None = None) -> RunConfig:
    """Priority: preset < config file < explicit overrides."""
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset '{preset}'; choose from {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            _check_key(key)
            merged[key] = _coerce(key, value) if isinstance(value, str) else value
    cfg = RunConfig(**merged)
    return cfg.validate()


def parse_override(text: str) -> tuple[str, str]:
    """Split a --set argument of the form key=value."""
    if "=" not in text:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    key, _, value = text.partition("=")
    return key.strip(), value
