"""Lebesgue, weak-Lebesgue, and iterated mixed quasinorms.

Exponents in symbolic contexts (Hoelder scaling, admissibility, range
queries) are exact rationals; ``math.inf`` stands for an infinite exponent.
Norm values themselves are floating point.

The mixed norm of a tuple ``R = (r1, ..., rn)`` is evaluated innermost-last:
the last array axis is reduced with ``rn`` first, then the next-to-last with
``r(n-1)``, and so on.  Spatial axes carry the grid measure ``dx``; trailing
vector axes carry counting measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MajorSubsetError, ShapeError
from .grid import GridFunction

__all__ = [
    "INF",
    "recip",
    "ExponentTuple",
    "MixedNormSpec",
    "MeasurableSet",
    "lp_norm",
    "distribution_function",
    "weak_lp_norm",
    "mixed_norm",
    "dualize_weak_via_Lr",
    "major_subset_L1",
]

INF = math.inf

Exponent = Fraction | int | float  # finite rational or math.inf


def recip(p: Exponent) -> Fraction:
    """Reciprocal as an exact rational; infinity maps to 0."""
    if p == INF:
        return Fraction(0)
    if isinstance(p, float):
        p = Fraction(p).limit_denominator(10 ** 9)
    return 1 / Fraction(p)


def dual_recip(p: Exponent) -> Fraction:
    """1/p' = 1 - 1/p (meaningful for any positive p, possibly negative)."""
    return 1 - recip(p)


def _is_admissible_reciprocals(a1: Fraction, a2: Fraction, a3: Fraction) -> bool:
    if a1 + a2 + a3 != 1:
        return False
    if not all(-1 < a < 1 for a in (a1, a2, a3)):
        return False
    return sum(1 for a in (a1, a2, a3) if a <= 0) <= 1


@dataclass(frozen=True)
class ExponentTuple:
    """A Hoelder triple (p, q, s) with exact scaling 1/p + 1/q = 1/s."""

    p: Exponent
    q: Exponent
    s: Exponent

    def __post_init__(self):
        if recip(self.p) + recip(self.q) != recip(self.s):
            raise ValueError(
                f"Hoelder scaling violated: 1/{self.p} + 1/{self.q} != 1/{self.s}"
            )

    @property
    def admissible(self) -> bool:
        """(1/p, 1/q, 1/s') sums to 1, each in (-1, 1), at most one <= 0."""
        return _is_admissible_reciprocals(
            recip(self.p), recip(self.q), dual_recip(self.s)
        )


@dataclass(frozen=True)
class MixedNormSpec:
    """Iterated-norm exponent tuple, outermost first."""

    exponents: tuple[Exponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) < 1:
            raise ValueError("need at least one exponent")
        for r in self.exponents:
            if r != INF and not r > Fraction(1, 2):
                raise ValueError(f"exponents must lie in (1/2, inf], got {r}")

    @property
    def depth(self) -> int:
        return len(self.exponents)


@dataclass
class MeasurableSet:
    """A set represented by a 0/1 indicator on a grid."""

    indicator: GridFunction

    def __post_init__(self):
        vals = self.indicator.samples
        if not np.all((vals == 0) | (vals == 1)):
            raise ValueError("indicator samples must be 0 or 1")

    @property
    def grid(self):
        return self.indicator.grid

    @property
    def mask(self) -> np.ndarray:
        return self.indicator.samples.real > 0.5

    @property
    def measure(self) -> float:
        return float(np.sum(self.mask) * self.grid.cell_measure)

    def minus_mask(self, bad: np.ndarray) -> "MeasurableSet":
        keep = self.mask & ~bad
        return MeasurableSet(GridFunction(self.grid, keep.astype(complex)))

    @classmethod
    def from_mask(cls, grid, mask: np.ndarray) -> "MeasurableSet":
        return cls(GridFunction(grid, np.asarray(mask, dtype=bool).astype(complex)))


# ---------------------------------------------------------------------------
# Scalar norms
# ---------------------------------------------------------------------------

def lp_norm(
    f: GridFunction,
    p: Exponent,
    weight: GridFunction | None = None,
) -> float:
    """(integral |f w|^p)**(1/p) with the grid measure; max norm for p = inf."""
    vals = np.abs(f.samples)
    if weight is not None:
        vals = vals * np.abs(weight.samples)
    if p == INF:
        return float(vals.max())
    pf = float(p)
    if pf <= 0:
        raise ValueError("p must be positive")
    return float((np.sum(vals ** pf) * f.grid.cell_measure) ** (1.0 / pf))


def distribution_function(f: GridFunction, lam: float) -> float:
    """Measure of {|f| > lam}."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return float(np.sum(np.abs(f.samples) > lam) * f.grid.cell_measure)


def weak_lp_norm(f: GridFunction, p: Exponent) -> float:
    """sup over lambda of lambda * d_f(lambda)**(1/p).

    On a grid the supremum is attained as lambda approaches one of the
    finitely many sample magnitudes from below, so it equals
    max over values v > 0 of v * measure{|f| >= v}**(1/p).
    """
    if p == INF:
        return lp_norm(f, INF)
    pf = float(p)
    vals = np.abs(f.samples).ravel()
    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    if sorted_vals[0] == 0:
        return 0.0
    counts = np.arange(1, len(sorted_vals) + 1)
    cand = sorted_vals * (counts * f.grid.cell_measure) ** (1.0 / pf)
    return float(cand[sorted_vals > 0].max())


def mixed_norm(f: GridFunction, spec: MixedNormSpec) -> float:
    """Iterated norm over all axes of f, innermost (last axis) first."""
    ndim = f.samples.ndim
    if spec.depth != ndim:
        raise ShapeError(
            f"spec depth {spec.depth} does not match array rank {ndim}"
        )
    vals = np.abs(f.samples)
    dx = f.grid.spacing
    for axis in range(ndim - 1, -1, -1):
        r = spec.exponents[axis]
        w = dx if axis < f.grid.dimension else 1.0
        if r == INF:
            vals = vals.max(axis=axis)
        else:
            rf = float(r)
            vals = (np.sum(vals ** rf, axis=axis) * w) ** (1.0 / rf)
    return float(vals)


# ---------------------------------------------------------------------------
# Weak-norm dualization through L^r
# ---------------------------------------------------------------------------

def _major_subset(
    f: GridFunction, E: MeasurableSet, p: Exponent, C: float
) -> tuple[MeasurableSet, float, float]:
    """(E \\ {|f| > C A / |E|^(1/p)}, its share of |E|, |E|), where A is the
    weak-L^p quasinorm of f."""
    measure = E.measure
    if measure <= 0:
        raise ValueError("|E| must be positive")
    A = weak_lp_norm(f, p)
    threshold = C * A / measure ** (1.0 / float(p))
    trimmed = E.minus_mask(np.abs(f.samples) > threshold)
    return trimmed, trimmed.measure / measure, measure


def dualize_weak_via_Lr(
    f: GridFunction,
    E: MeasurableSet,
    r: Exponent,
    p: Exponent,
    C: float = 4.0,
) -> tuple[MeasurableSet, float]:
    """Construct the major subset E~ = E \\ {|f| > C A / |E|^(1/p)}.

    A is the weak-L^p quasinorm of f.  Returns (E~, ||f 1_E~||_r /
    |E|^(1/r - 1/p)).  Raises :class:`MajorSubsetError` when |E~| < |E|/2.
    """
    tilde, ratio_measure, measure = _major_subset(f, E, p, C)
    if ratio_measure < 0.5:
        raise MajorSubsetError(
            f"constructed subset has |E~|/|E| = {ratio_measure:.4f} < 1/2 "
            f"(threshold constant C={C})",
            achieved_ratio=ratio_measure,
        )
    restricted = GridFunction(f.grid, f.samples * tilde.mask)
    value = lp_norm(restricted, r)
    expo = 1.0 / float(r) - 1.0 / float(p)
    return tilde, float(value / measure ** expo)


def major_subset_L1(
    f: GridFunction,
    E: MeasurableSet,
    p: Exponent,
    C: float = 4.0,
) -> tuple[MeasurableSet, float]:
    """L1 dualization of the weak norm: pairing with the trimmed indicator.

    Returns (E', |<f, 1_E'>| / |E|^(1 - 1/p)) where E' removes the set where
    |f| exceeds C A / |E|^(1/p).
    """
    prime, ratio_measure, measure = _major_subset(f, E, p, C)
    if ratio_measure < 0.5:
        raise MajorSubsetError(
            f"constructed subset has |E'|/|E| = {ratio_measure:.4f} < 1/2",
            achieved_ratio=ratio_measure,
        )
    pairing = abs(complex(np.sum(f.samples * prime.mask) * f.grid.cell_measure))
    return prime, float(pairing / measure ** (1.0 - 1.0 / float(p)))
