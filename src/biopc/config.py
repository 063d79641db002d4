"""Run configuration: defaults, `key = value` config files, flag merging.

Precedence is command-line flag > config file entry > built-in default.
Unset inference rate, activity-update count and threshold floor resolve from
the dataset and bias (beta and the update count differ between the two
datasets; the threshold floor is -1-bias since an activity of 0 can face an
effective prediction as large as 1+bias).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import encodings as enc
from .linalg import ActivationKind
from .network import FEEDBACK_SCHEMES

NETWORK_DIMS = [784, 300, 300, 10]

DATASET_DEFAULTS = {
    "mnist": {"beta": 0.1, "n_updates": 20},
    "fashion": {"beta": 0.025, "n_updates": 7},
}

_CHOICES = {
    "dataset": tuple(DATASET_DEFAULTS),
    "model": ("pc", "bp"),
    "feedback": tuple(s.name for s in FEEDBACK_SCHEMES),
    "encoding": tuple(e.name for e in enc.ENCODINGS),
    "hidden_activation": tuple(k.value for k in ActivationKind),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    dataset: str = "mnist"
    data_dir: str = "data"
    model: str = "pc"
    feedback: str = "transpose"
    encoding: str = "subtractive"
    hidden_activation: str = "sigmoid"
    positive_activities: bool = False
    bias: float = 0.0
    epochs: int = 25
    batch_size: int = 64
    lr: float = 0.001
    beta: Optional[float] = None
    n_updates: Optional[int] = None
    gamma: float = 0.003
    epsilon: float = 1e-3
    e_min: Optional[float] = None
    e_max: float = 2.1
    seed: int = 0
    out_dir: str = "runs"

    def finalize(self) -> "TrainConfig":
        """Fill dataset/bias-dependent defaults and validate; returns a fully
        concrete config."""
        for field, allowed in _CHOICES.items():
            value = getattr(self, field)
            if value not in allowed:
                raise ConfigError(f"{field} must be one of {allowed}, got {value!r}")
        filled = dataclasses.replace(
            self,
            beta=self.beta if self.beta is not None else DATASET_DEFAULTS[self.dataset]["beta"],
            n_updates=self.n_updates if self.n_updates is not None
            else DATASET_DEFAULTS[self.dataset]["n_updates"],
            e_min=self.e_min if self.e_min is not None else -1.0 - self.bias,
        )
        filled._validate()
        return filled

    def _validate(self) -> None:
        if self.bias < 0:
            raise ConfigError(f"bias must be >= 0, got {self.bias}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch-size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.n_updates < 0:
            raise ConfigError(f"n-updates must be >= 0, got {self.n_updates}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.e_min > 0:
            raise ConfigError(f"e-min must be <= 0, got {self.e_min}")
        if not self.e_max > 0:
            raise ConfigError(f"e-max must be > 0, got {self.e_max}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Last: building the encoding reruns its own parameter checks, which
        # raise ValueError rather than ConfigError.
        if self.encoding_value().needs_positive and not self.positive_activities:
            raise ConfigError(
                f"encoding={self.encoding} requires positive-activities=true: its "
                "error is only defined on non-negative rates"
            )

    # -- pieces consumed by the model builders -------------------------------

    def encoding_value(self) -> enc.ErrorEncoding:
        return enc.build(enc.ENCODINGS, "name", self.encoding, vars(self))

    def feedback_value(self):
        return enc.build(FEEDBACK_SCHEMES, "name", self.feedback, vars(self))

    def hidden_activation_value(self) -> ActivationKind:
        return ActivationKind(self.hidden_activation)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key not in _BOOL_WORDS:
        raise ConfigError(f"expected a boolean (true/false), got {text!r}")
    return _BOOL_WORDS[key]


def _coerce(field: str, text: str):
    kind = _FIELD_TYPES[field]
    text = text.strip()
    try:
        if field in ("positive_activities",):
            return parse_bool(text)
        if kind in ("int", "Optional[int]"):
            return int(text)
        if kind in ("float", "Optional[float]"):
            return float(text)
        return text
    except ValueError as err:
        raise ConfigError(f"bad value for {field}: {err}") from None


def parse_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, keys may be written
    with dashes or underscores."""
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        field = key.strip().replace("-", "_")
        if field not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        entries[field] = _coerce(field, value)
    return entries


def merge_config(file_entries: Optional[dict] = None, flag_entries: Optional[dict] = None) -> TrainConfig:
    """Built-in defaults, overridden by the config file, overridden by flags.
    Flag entries with value None count as absent."""
    merged = {}
    if file_entries:
        merged.update(file_entries)
    if flag_entries:
        merged.update({k: v for k, v in flag_entries.items() if v is not None})
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return TrainConfig(**merged)
