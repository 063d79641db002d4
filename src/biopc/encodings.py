"""Error-neuron encodings and the objectives they minimize.

Three ways to represent the mismatch between an activity and its top-down
effective prediction f(p) + b:

* ``Subtractive`` -- the signed difference a - (f(p) + b).
* ``SubtractiveThreshold`` -- an affine remap of that difference onto
  non-negative firing rates with a baseline rate of 1 (a zero difference
  encodes to 1, the representable range [e_min, e_min + e_max] maps to
  [0, 2]). Decoding is exact, so update rules driven through this encoding
  reproduce the subtractive ones.
* ``Division`` -- the square-root ratio sqrt((a + eps) / (f(p) + b + eps)),
  always positive, equal to 1 when activity matches prediction. Its
  objective is the squared log of the ratio.

Each encoding class owns everything that varies with it: its config
`name` and checkpoint `tag`, whether it `needs_positive` rates, the
`terms` arrays one level needs, its `error`, the `rising` term that carries
a level's error into both the bottom-up activity update below it and the
weight update, the `top_down` term that pulls an activity toward its
prediction, its per-level `cost` and the `output_cost` of forward-sweep
outputs against targets. Its dataclass fields are its parameters, named as
in the run config and the checkpoint. `ENCODINGS` lists the classes;
`find` looks one up by name or tag in it or in another such registry.

`error` writes into the `LevelTerms` it is given (made by `terms`), which
also keep what the update terms reuse (for division, 0.5 log e, a + eps and
phat + eps), so those are computed once per level and step; `rising` and
`top_down` then write into arrays they are given. The methods take 2-D
float64 arrays: shapes are checked where a batch enters the network, and
only an encoding's domain is checked on every call, raising
`EncodingDomainError` with the encoding's name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


class EncodingDomainError(ValueError):
    """Inputs fall outside the domain an encoding is defined on."""


@dataclass
class LevelTerms:
    """One level's error `e` plus the arrays its encoding reuses until the
    next `error` call: the encoded rates `e_star` (threshold) or
    `half_log_e`, `a_eps` and `phat_eps` (division); the others stay None."""

    e: np.ndarray
    e_star: Optional[np.ndarray] = None
    half_log_e: Optional[np.ndarray] = None
    a_eps: Optional[np.ndarray] = None
    phat_eps: Optional[np.ndarray] = None


class _SubtractiveFamily:
    """Update terms of the encodings whose decoded error is the signed
    difference a - phat."""

    needs_positive = False

    def rising(self, terms: LevelTerms, f_up: np.ndarray) -> np.ndarray:
        """The rising term e * f', written over `f_up` (f' at the level)."""
        f_up *= terms.e
        return f_up

    def top_down(self, terms: LevelTerms, out: np.ndarray) -> np.ndarray:
        """The top-down term: e itself, so `out` is not written."""
        return terms.e

    def cost(self, e) -> float:
        """Squared prediction error of one level: sum over units of (1/2) e^2,
        mean over batch."""
        return float(0.5 * np.sum(e * e) / e.shape[1])

    def output_cost(self, y, out) -> float:
        return self.cost(y - out)


@dataclass(frozen=True)
class Subtractive(_SubtractiveFamily):
    name = "subtractive"
    tag = 0

    def terms(self, shape) -> LevelTerms:
        """The arrays one level of this shape needs."""
        return LevelTerms(e=np.empty(shape))

    def error(self, a, phat, terms: LevelTerms):
        """(e, e_star): the error the update rules consume and, for encodings
        whose neurons fire something else, the encoded rates (else None).
        Both are written into `terms`, from `terms(a.shape)`."""
        return np.subtract(a, phat, out=terms.e), None


@dataclass(frozen=True)
class SubtractiveThreshold(_SubtractiveFamily):
    name = "threshold"
    tag = 1

    e_min: float = -1.0
    e_max: float = 2.1

    def __post_init__(self):
        if not (self.e_max > 0 and math.isfinite(self.e_max)):
            raise ValueError(f"e_max must be positive and finite, got {self.e_max}")
        if not (self.e_min <= 0 and math.isfinite(self.e_min)):
            raise ValueError(f"e_min must be <= 0 and finite, got {self.e_min}")

    def terms(self, shape) -> LevelTerms:
        return LevelTerms(e=np.empty(shape), e_star=np.empty(shape))

    def error(self, a, phat, terms: LevelTerms):
        estar = np.subtract(a, phat, out=terms.e_star)
        lowest = estar.min() if estar.size else 0.0
        if lowest < self.e_min:
            raise EncodingDomainError(f"{self.name} encoding: entry {lowest} is below the "
                                      f"representable minimum e_min={self.e_min}")
        # Encode onto non-negative rates, e* = 2 (e - e_min) / e_max.
        estar -= self.e_min
        estar *= 2.0
        estar /= self.e_max
        # Update rules see the decoded value, e = (e_max / 2) e* + e_min; the
        # round trip is exact up to float rounding, which is what makes this
        # scheme track the plain subtractive one.
        e = np.multiply(estar, self.e_max / 2.0, out=terms.e)
        e += self.e_min
        return e, estar


@dataclass(frozen=True)
class Division:
    name = "division"
    tag = 2
    needs_positive = True

    epsilon: float = 1e-3

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def terms(self, shape) -> LevelTerms:
        return LevelTerms(e=np.empty(shape), half_log_e=np.empty(shape),
                          a_eps=np.empty(shape), phat_eps=np.empty(shape))

    def _ratio(self, a, phat, out=None, a_eps=None, phat_eps=None) -> np.ndarray:
        """Ratio mismatch e** = sqrt((a + eps) / (phat + eps)); 1 where
        a == phat. Written into `out` when given, with a + eps and phat + eps
        into `a_eps` and `phat_eps`."""
        for what, rates in (("activity", a), ("prediction", phat)):
            if rates.size and rates.min() < 0:
                raise EncodingDomainError(f"{self.name} encoding: negative {what} entry "
                                          f"{rates.min()}; rates must be >= 0")
        out = np.divide(np.add(a, self.epsilon, out=a_eps),
                        np.add(phat, self.epsilon, out=phat_eps), out=out)
        return np.sqrt(out, out=out)

    def error(self, a, phat, terms: LevelTerms):
        e = self._ratio(a, phat, terms.e, terms.a_eps, terms.phat_eps)
        np.log(e, out=terms.half_log_e)
        terms.half_log_e *= 0.5
        return e, None

    def rising(self, terms: LevelTerms, f_up: np.ndarray) -> np.ndarray:
        """0.5 log(e) * f' / (phat + eps), written over `f_up`."""
        f_up *= terms.half_log_e
        f_up /= terms.phat_eps
        return f_up

    def top_down(self, terms: LevelTerms, out: np.ndarray) -> np.ndarray:
        """0.5 log(e) / (a + eps), written into `out`."""
        return np.divide(terms.half_log_e, terms.a_eps, out=out)

    def cost(self, e) -> float:
        """Cost of ratio mismatches: sum over units of (1/2) ln(e**)^2, mean
        over batch."""
        if e.size and e.min() <= 0:
            raise EncodingDomainError(f"{self.name} encoding: non-positive ratio "
                                      f"{e.min()}; ratios must be > 0")
        logs = np.log(e)
        return float(0.5 * np.sum(logs * logs) / e.shape[1])

    def output_cost(self, y, out) -> float:
        return self.cost(self._ratio(y, out))


ErrorEncoding = Union[Subtractive, SubtractiveThreshold, Division]
ENCODINGS = (Subtractive, SubtractiveThreshold, Division)


def find(registry, key: str, value) -> type:
    """The class in `registry` whose `key` ("name" or "tag") is `value`."""
    for cls in registry:
        if getattr(cls, key) == value:
            return cls
    raise ValueError(f"none of {[c.__name__ for c in registry]} has {key} {value!r}")


def build(registry, key: str, value, params: Optional[dict] = None):
    """An instance of `find(registry, key, value)`, its fields taken from
    `params` where present; ValueError when none matches or one is invalid."""
    cls = find(registry, key, value)
    params = params or {}
    return cls(**{f.name: params[f.name] for f in dataclasses.fields(cls) if f.name in params})

