"""Run configuration: defaults, `key = value` config files, flag merging.

`TrainConfig` is the one place a run setting and its default are written
(scheme parameters and the learning rate default to their class fields),
the class registries give the choices, and a field's declared type picks
its value parser. A rule a class owns is checked by that class: the config
builds the schemes, a `BatchPlan` and an `AdamState` and calls
`check_structure` on `structure()`, the keywords the model constructor
takes.

Precedence is command-line flag > config file entry > built-in default.
Unset inference rate, activity-update count and threshold floor resolve from
the dataset and bias (beta and the update count differ between the two
datasets; the threshold floor is -1-bias since an activity of 0 can face an
effective prediction as large as 1+bias).
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import encodings as enc
from .baseline import MODELS
from .dataio import N_CLASSES, N_FEATURES, BatchPlan
from .linalg import ActivationKind
from .network import FEEDBACK_SCHEMES, KolenPollack, PCNetwork, Transpose
from .optim import AdamState

NETWORK_DIMS = [N_FEATURES, 300, 300, N_CLASSES]

DATASET_DEFAULTS = {
    "mnist": {"beta": 0.1, "n_updates": 20},
    "fashion": {"beta": 0.025, "n_updates": 7},
}

_CHOICES = {
    "dataset": tuple(DATASET_DEFAULTS),
    "model": tuple(m.name for m in MODELS),
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
    model: str = PCNetwork.name
    feedback: str = Transpose.name
    encoding: str = enc.Subtractive.name
    hidden_activation: str = ActivationKind.SIGMOID.value
    positive_activities: bool = False
    bias: float = 0.0
    epochs: int = 25
    batch_size: int = 64
    lr: float = AdamState.lr
    beta: Optional[float] = None
    n_updates: Optional[int] = None
    gamma: float = KolenPollack.gamma
    epsilon: float = enc.Division.epsilon
    e_min: Optional[float] = None
    e_max: float = enc.SubtractiveThreshold.e_max
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
        # Each bound is written so that NaN fails it, and infinity too.
        # Kept though the model checks it: the e_min default is derived from it.
        if not (self.bias >= 0 and math.isfinite(self.bias)):
            raise ConfigError(f"bias must be >= 0 and finite, got {self.bias}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # Kept though `activity_step` checks it: it must fail before data loads.
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.n_updates < 0:
            raise ConfigError(f"n-updates must be >= 0, got {self.n_updates}")
        # Each encoding and feedback scheme checks its own parameters; build
        # every one, selected or not, so that any bad value is reported.
        for registry in (enc.ENCODINGS, FEEDBACK_SCHEMES):
            for cls in registry:
                try:
                    enc.build(registry, cls.name, vars(self))
                except ValueError as err:
                    raise ConfigError(f"{cls.name}: {err}") from None
        try:
            BatchPlan(self.batch_size, self.seed)
            AdamState.for_shape((0, 0), lr=self.lr)
            self.model_class().check_structure(**self.structure())
        except ValueError as err:
            raise ConfigError(str(err)) from None

    # -- pieces consumed by the model builders -------------------------------

    def model_class(self) -> type:
        return enc.find(MODELS, self.model)

    def structure(self) -> dict:
        """The model constructor's structure keywords (see `init_network`)."""
        return {"encoding": enc.build(enc.ENCODINGS, self.encoding, vars(self)),
                "feedback": enc.build(FEEDBACK_SCHEMES, self.feedback, vars(self)),
                "hidden_activation": ActivationKind(self.hidden_activation),
                "bias": self.bias, "positive_activities": self.positive_activities}


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# A comment runs from a '#' at the start of a line or after a blank to the
# line's end, so a value can hold a '#' but not a ' #'.
_COMMENT = re.compile(r"(?:^|\s)#.*")
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key not in _BOOL_WORDS:
        raise ConfigError(f"expected a boolean (true/false), got {text!r}")
    return _BOOL_WORDS[key]


_PARSERS = {"bool": parse_bool, "int": int, "Optional[int]": int,
            "float": float, "Optional[float]": float, "str": str}


def _coerce(field: str, text: str):
    try:
        return _PARSERS[_FIELD_TYPES[field]](text.strip())
    except ValueError as err:
        raise ConfigError(f"bad value for {field}: {err}") from None


def parse_config_file(path) -> dict:
    """Parse `key = value` lines of UTF-8 text, a byte-order mark allowed;
    '#' at the start of a line or after a blank starts a comment (so
    `out_dir = runs/exp#1` keeps its '#'), and keys may be written with
    dashes or underscores. A field set on two lines is an error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: byte 0x{err.object[err.start]:02x} "
                          f"at offset {err.start}") from None
    entries, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        field = key.strip().replace("-", "_")
        if field not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        if field in set_on:
            raise ConfigError(f"{path}:{lineno}: {field} is already set on line {set_on[field]}")
        set_on[field] = lineno
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
