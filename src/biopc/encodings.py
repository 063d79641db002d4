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
`name` and checkpoint `tag`, whether it `needs_positive` rates, its
`error`, the `rising` term that carries a level's error into both the
bottom-up activity update below it and the weight update, the `top_down`
term that pulls an activity toward its prediction, its per-level `cost`
and the `output_cost` of forward-sweep outputs against targets. Its
dataclass fields are its parameters, named as in the run config and the
checkpoint. `ENCODINGS` lists the classes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .linalg import as_matrix


class EncodingDomainError(ValueError):
    """Inputs fall outside the domain an encoding is defined on."""


class _SubtractiveFamily:
    """Update terms of the encodings whose decoded error is the signed
    difference a - phat."""

    needs_positive = False

    def rising(self, e, f_up, phat):
        return e * f_up

    def top_down(self, e, a):
        return e

    def cost(self, e) -> float:
        return energy([e])

    def output_cost(self, y, out) -> float:
        return energy([y - out])


@dataclass(frozen=True)
class Subtractive(_SubtractiveFamily):
    name = "subtractive"
    tag = 0

    def error(self, a, phat):
        """(e, e_star): the error the update rules consume and, for encodings
        whose neurons fire something else, the encoded rates (else None)."""
        return a - phat, None


@dataclass(frozen=True)
class SubtractiveThreshold(_SubtractiveFamily):
    name = "threshold"
    tag = 1

    e_min: float = -1.0
    e_max: float = 2.1

    def __post_init__(self):
        if not self.e_max > 0:
            raise ValueError(f"e_max must be positive, got {self.e_max}")
        if self.e_min > 0:
            raise ValueError(f"e_min must be <= 0, got {self.e_min}")

    def error(self, a, phat):
        estar = threshold_encode(a - phat, self.e_min, self.e_max)
        # Update rules see the decoded value; the round trip is exact up to
        # float rounding, which is what makes this scheme track the plain
        # subtractive one.
        return threshold_decode(estar, self.e_min, self.e_max), estar


@dataclass(frozen=True)
class Division:
    name = "division"
    tag = 2
    needs_positive = True

    epsilon: float = 1e-3

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def error(self, a, phat):
        return division_error(a, phat, self.epsilon), None

    def rising(self, e, f_up, phat):
        return 0.5 * np.log(e) * f_up / (phat + self.epsilon)

    def top_down(self, e, a):
        return 0.5 * np.log(e) / (a + self.epsilon)

    def cost(self, e) -> float:
        return division_cost(e)

    def output_cost(self, y, out) -> float:
        return division_cost(division_error(y, out, self.epsilon))


ErrorEncoding = Union[Subtractive, SubtractiveThreshold, Division]
ENCODINGS = (Subtractive, SubtractiveThreshold, Division)


def build(registry, key: str, value, params: Optional[dict] = None):
    """An instance of the class in `registry` whose `key` attribute ("name"
    or "tag") equals `value`, its fields taken from `params` where present
    (defaults otherwise). Raises ValueError when no class matches or the
    parameters are invalid."""
    params = params or {}
    for cls in registry:
        if getattr(cls, key) == value:
            return cls(**{f.name: params[f.name] for f in dataclasses.fields(cls)
                          if f.name in params})
    raise ValueError(f"none of {[c.__name__ for c in registry]} has {key} {value!r}")


def threshold_encode(e, e_min: float, e_max: float) -> np.ndarray:
    """Map signed errors onto non-negative rates: e* = 2 (e - e_min) / e_max."""
    e = as_matrix(e)
    lowest = e.min() if e.size else 0.0
    if lowest < e_min:
        raise EncodingDomainError(
            f"threshold_encode: entry {lowest} is below the representable minimum e_min={e_min}"
        )
    return 2.0 * (e - e_min) / e_max


def threshold_decode(estar, e_min: float, e_max: float) -> np.ndarray:
    """Exact inverse of threshold_encode: e = (e_max / 2) e* + e_min."""
    estar = as_matrix(estar)
    return (e_max / 2.0) * estar + e_min


def division_error(a, phat, epsilon: float) -> np.ndarray:
    """Ratio mismatch e** = sqrt((a + eps) / (phat + eps)); 1 where a == phat."""
    a = as_matrix(a)
    phat = as_matrix(phat)
    if a.shape != phat.shape:
        raise EncodingDomainError(f"division_error: shapes disagree, {a.shape} vs {phat.shape}")
    if a.size and a.min() < 0:
        raise EncodingDomainError(
            f"division_error: negative activity entry {a.min()}; positive rates required"
        )
    if phat.size and phat.min() < 0:
        raise EncodingDomainError(
            f"division_error: negative prediction entry {phat.min()}; positive rates required"
        )
    return np.sqrt((a + epsilon) / (phat + epsilon))


def division_cost(estar2) -> float:
    """Cost of ratio mismatches: sum over units of (1/2) ln(e**)^2, mean over batch."""
    estar2 = as_matrix(estar2)
    if estar2.size and estar2.min() <= 0:
        raise EncodingDomainError(
            f"division_cost: non-positive entry {estar2.min()}; ratios must be > 0"
        )
    logs = np.log(estar2)
    return float(0.5 * np.sum(logs * logs) / estar2.shape[1])


def energy(errors: list) -> float:
    """Total squared prediction error: sum over levels and units of (1/2) e^2, mean over batch."""
    total = 0.0
    for e in errors:
        e = as_matrix(e)
        total += 0.5 * np.sum(e * e) / e.shape[1]
    return float(total)
