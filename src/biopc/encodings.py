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
`name`, whether it `needs_positive` rates, the `terms` arrays one level
needs, its `error`, the `rising` term that carries a level's error into
both the bottom-up activity update below it and the weight update, the
`top_down` term that pulls an activity toward its prediction, its
per-level `cost` and the `output_cost` of forward-sweep outputs against
targets. Its dataclass fields are its parameters, named as in the run
config and the checkpoint. `ENCODINGS` lists the classes; `find` looks one
up by name in it or in another such registry (the checkpoint's byte codes
are `checkpoint`'s own tables of these names).

`error` writes a level's error in place into the `LevelTerms` it is given
(made by `terms`; a network holds them in `NetworkState.terms`) and returns
nothing. The terms also keep what the update terms and `cost` reuse (for
division, 0.5 log e, a + eps and phat + eps), so those are computed once
per level and step; `rising` scales the f' array it is given, in place.
The methods take 2-D float64 arrays: shapes are checked where a batch
enters the network, and only an encoding's domain is checked on every
call, raising `EncodingDomainError` with the encoding's name.
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
    next `error` call, which writes them in place: the encoded rates
    `e_star` (threshold) or `half_log_e`, `a_eps` and `phat_eps`
    (division); the others stay None. An encoding's `terms` makes them
    filled with NaN, which they hold until the first `error` call."""

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

    def top_down(self, terms: LevelTerms) -> np.ndarray:
        """The top-down term: e itself."""
        return terms.e

    def cost(self, terms: LevelTerms) -> float:
        """Squared prediction error of one level: sum over units of (1/2) e^2,
        mean over batch."""
        e = terms.e
        return float(0.5 * np.sum(e * e) / e.shape[1])

    def output_cost(self, y, out) -> float:
        return self.cost(LevelTerms(e=y - out))


@dataclass(frozen=True)
class Subtractive(_SubtractiveFamily):
    name = "subtractive"

    def terms(self, shape) -> LevelTerms:
        """The arrays one level of this shape needs."""
        return LevelTerms(e=np.full(shape, np.nan))

    def error(self, a, phat, terms: LevelTerms) -> None:
        """Writes the error the update rules consume into `terms`, from
        `terms(a.shape)`: here the signed difference a - phat."""
        np.subtract(a, phat, out=terms.e)


@dataclass(frozen=True)
class SubtractiveThreshold(_SubtractiveFamily):
    name = "threshold"

    e_min: float = -1.0
    e_max: float = 2.1

    def __post_init__(self):
        if not (self.e_max > 0 and math.isfinite(self.e_max)):
            raise ValueError(f"e_max must be positive and finite, got {self.e_max}")
        if not (self.e_min <= 0 and math.isfinite(self.e_min)):
            raise ValueError(f"e_min must be <= 0 and finite, got {self.e_min}")

    def terms(self, shape) -> LevelTerms:
        return LevelTerms(e=np.full(shape, np.nan), e_star=np.full(shape, np.nan))

    def error(self, a, phat, terms: LevelTerms) -> None:
        """Writes the encoded rates into `terms.e_star`, decoded into `terms.e`."""
        estar = np.subtract(a, phat, out=terms.e_star)
        lowest = estar.min() if estar.size else 0.0
        if lowest < self.e_min:
            raise EncodingDomainError(f"{self.name} encoding: entry {lowest} is below the "
                                      f"representable minimum e_min={self.e_min}")
        # Encode onto non-negative rates, e* = 2 (e - e_min) / e_max, in one
        # division by e_max / 2: scaling by 2 is exact on either side, so
        # this rounds the same real number as doubling first.
        estar -= self.e_min
        estar /= self.e_max / 2.0
        # Update rules see the decoded value, e = (e_max / 2) e* + e_min; the
        # round trip is exact up to float rounding, which is what makes this
        # scheme track the plain subtractive one.
        np.multiply(estar, self.e_max / 2.0, out=terms.e)
        terms.e += self.e_min


@dataclass(frozen=True)
class Division:
    name = "division"
    needs_positive = True

    epsilon: float = 1e-3

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def terms(self, shape) -> LevelTerms:
        return LevelTerms(e=np.full(shape, np.nan), half_log_e=np.full(shape, np.nan),
                          a_eps=np.full(shape, np.nan), phat_eps=np.full(shape, np.nan))

    def error(self, a, phat, terms: LevelTerms) -> None:
        """Writes the ratio mismatch e** = sqrt((a + eps) / (phat + eps)),
        1 where a == phat, into `terms.e`, with a + eps, phat + eps and
        0.5 log e** into the terms the update terms reuse."""
        for what, rates in (("activity", a), ("prediction", phat)):
            if rates.size and rates.min() < 0:
                raise EncodingDomainError(f"{self.name} encoding: negative {what} entry "
                                          f"{rates.min()}; rates must be >= 0")
        e = np.divide(np.add(a, self.epsilon, out=terms.a_eps),
                      np.add(phat, self.epsilon, out=terms.phat_eps), out=terms.e)
        np.sqrt(e, out=e)
        np.log(e, out=terms.half_log_e)
        terms.half_log_e *= 0.5

    def rising(self, terms: LevelTerms, f_up: np.ndarray) -> np.ndarray:
        """0.5 log(e) * f' / (phat + eps), written over `f_up`."""
        f_up *= terms.half_log_e
        f_up /= terms.phat_eps
        return f_up

    def top_down(self, terms: LevelTerms) -> np.ndarray:
        """0.5 log(e) / (a + eps), a new array."""
        return np.divide(terms.half_log_e, terms.a_eps)

    def cost(self, terms: LevelTerms) -> float:
        """Cost of ratio mismatches: sum over units of (1/2) ln(e**)^2, mean
        over batch. ln e** is read as 2 * `half_log_e`, which is exact."""
        e = terms.e
        if e.size and e.min() <= 0:
            raise EncodingDomainError(f"{self.name} encoding: non-positive ratio "
                                      f"{e.min()}; ratios must be > 0")
        logs = 2.0 * terms.half_log_e
        return float(0.5 * np.sum(logs * logs) / e.shape[1])

    def output_cost(self, y, out) -> float:
        terms = self.terms(y.shape)
        self.error(y, out, terms)
        return self.cost(terms)


ErrorEncoding = Union[Subtractive, SubtractiveThreshold, Division]
ENCODINGS = (Subtractive, SubtractiveThreshold, Division)


def find(registry, name: str) -> type:
    """The class in `registry` whose config `name` is `name`."""
    for cls in registry:
        if cls.name == name:
            return cls
    raise ValueError(f"none of {[c.__name__ for c in registry]} is named {name!r}")


def build(registry, name: str, params: Optional[dict] = None):
    """An instance of `find(registry, name)`, its fields taken from `params`
    where present; ValueError when none matches or one is invalid."""
    cls = find(registry, name)
    params = params or {}
    return cls(**{f.name: params[f.name] for f in dataclasses.fields(cls) if f.name in params})

