"""Lebesgue, weak-Lebesgue, and iterated mixed quasinorms.

Exponents in symbolic contexts (Hoelder scaling, range queries) are exact
rationals; ``math.inf`` stands for an infinite exponent.
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
from .grid import GridFunction, SampleGrid, _require_same_grid

__all__ = [
    "INF",
    "recip",
    "ExponentTuple",
    "MixedNormSpec",
    "MeasurableSet",
    "lp_norm",
    "weak_lp_norm",
    "mixed_norm",
    "dualize_weak_via_Lr",
    "dualize_superlevel_sets",
    "major_subset_L1",
]

INF = math.inf

Exponent = Fraction | int | float  # finite rational or math.inf


def recip(p: Exponent) -> Fraction:
    """Reciprocal as an exact rational; infinity maps to 0.

    The one rule from an exponent to a rational: a float is read as the
    nearest fraction with denominator at most 1e9.  Exponents must be
    positive.
    """
    if not p > 0:
        raise ValueError(f"exponent {p} must be positive")
    if p == INF:
        return Fraction(0)
    if isinstance(p, float):
        p = Fraction(p).limit_denominator(10 ** 9)
    return 1 / Fraction(p)


def dual_recip(p: Exponent) -> Fraction:
    """1/p' = 1 - 1/p (meaningful for any positive p, possibly negative)."""
    return 1 - recip(p)


def _reciprocal_text(p: Exponent) -> str:
    return f"1/({p})" if "/" in str(p) else f"1/{p}"


@dataclass(frozen=True)
class ExponentTuple:
    """A Hoelder triple (p, q, s) with exact scaling 1/p + 1/q = 1/s: the
    one Hoelder check of every exponent tuple read as data."""

    p: Exponent
    q: Exponent
    s: Exponent

    def __post_init__(self):
        if recip(self.p) + recip(self.q) != recip(self.s):
            p, q, s = (_reciprocal_text(e) for e in (self.p, self.q, self.s))
            raise ValueError(f"Hoelder scaling violated: {p} + {q} != {s}")


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
        _require_same_grid(f, weight)
        vals = vals * np.abs(weight.samples)
    if p == INF:
        return float(vals.max())
    pf = float(p)
    if pf <= 0:
        raise ValueError("p must be positive")
    return float((np.sum(vals ** pf) * f.grid.cell_measure) ** (1.0 / pf))


def weak_lp_norm(f: GridFunction, p: Exponent) -> float:
    """sup over lambda of lambda * d_f(lambda)**(1/p).

    On a grid the supremum is attained as lambda approaches one of the
    finitely many sample magnitudes from below, so it equals
    max over values v > 0 of v * measure{|f| >= v}**(1/p).
    """
    if p == INF:
        return lp_norm(f, INF)
    pf = float(p)
    if pf <= 0:
        raise ValueError("p must be positive")
    return float(_weak_norms(np.abs(f.samples).ravel(), f.grid.cell_measure, pf))


def _weak_norms(mags: np.ndarray, cell: float, p: float) -> np.ndarray:
    """max over values v of v * (cell * #{entries >= v})**(1/p) along the
    last axis of the magnitudes ``mags``: the weak L^p norm of each row
    (0 for a zero row)."""
    vals = np.sort(mags, axis=-1)[..., ::-1]
    counts = np.arange(1, vals.shape[-1] + 1)
    return (vals * (counts * cell) ** (1.0 / p)).max(axis=-1)


def mixed_norm(f: GridFunction, spec: MixedNormSpec) -> float:
    """Iterated norm over all axes of f, innermost (last axis) first."""
    return _iterated_norm(np.abs(f.samples), f.grid, spec)


def _iterated_norm(vals: np.ndarray, grid: SampleGrid, spec: MixedNormSpec) -> float:
    """:func:`mixed_norm` of a function on ``grid`` whose moduli are
    ``vals``, for callers that hold the moduli and no ``GridFunction``."""
    ndim = vals.ndim
    if spec.depth != ndim:
        raise ShapeError(
            f"spec depth {spec.depth} does not match array rank {ndim}"
        )
    dx = grid.spacing
    for axis in range(ndim - 1, -1, -1):
        r = spec.exponents[axis]
        w = dx if axis < grid.dimension else 1.0
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
    f: GridFunction, masks: np.ndarray, p: Exponent, C: float
) -> tuple[np.ndarray, list[float], list[float]]:
    """Trim a stack of sets, given as an ``(L,) + f.samples.shape`` boolean
    array, each to E \\ {|f| > C A / |E|^(1/p)}, where A is the weak-L^p
    quasinorm of f, computed once.

    Returns the trimmed stack, each set's share |E~|/|E| and each |E|.
    """
    rows = (len(masks), f.samples.size)
    cell = f.grid.cell_measure
    # per-set scalars are Python floats, each computed as for one set alone
    measures = [c * cell for c in masks.reshape(rows).sum(axis=1).tolist()]
    if not all(m > 0 for m in measures):
        raise ValueError("|E| must be positive")
    A = weak_lp_norm(f, p)
    thresholds = [C * A / m ** (1.0 / float(p)) for m in measures]
    above = np.abs(f.samples) > np.reshape(thresholds, (-1,) + (1,) * f.samples.ndim)
    trimmed = masks & ~above
    kept = trimmed.reshape(rows).sum(axis=1).tolist()
    shares = [c * cell / m for c, m in zip(kept, measures)]
    return trimmed, shares, measures


def _major_one_set(
    f: GridFunction, E: MeasurableSet, p: Exponent, C: float
) -> tuple[np.ndarray, list[float]]:
    """The trim of one set E, as a one-set stack, and [|E|]; raises
    :class:`MajorSubsetError` when |E~| < |E|/2."""
    trimmed, (share,), measures = _major_subset(f, E.mask[None], p, C)
    if share < 0.5:
        raise MajorSubsetError(
            f"constructed subset has |E~|/|E| = {share:.4f} < 1/2 "
            f"(threshold constant C={C})",
            achieved_ratio=share,
        )
    return trimmed, measures


def _lr_ratios(
    f: GridFunction, trimmed: np.ndarray, measures: list[float], r: Exponent, p: Exponent
) -> list[float]:
    """||f 1_E~||_r / |E|^(1/r - 1/p) of each trimmed set.  The set axis comes
    first, so each set's sum runs over one contiguous row and rounds as the
    one-set sum of :func:`lp_norm` does."""
    if not r > 0:
        raise ValueError("r must be positive")
    rows = (len(trimmed), f.samples.size)
    mags = np.abs(f.samples)
    if r == INF:
        values = (mags * trimmed).reshape(rows).max(axis=1).tolist()
    else:
        # |f 1_E~|^r is |f|^r times the 0/1 indicator, exactly
        rf = float(r)
        sums = np.sum((mags ** rf * trimmed).reshape(rows), axis=1).tolist()
        cell = f.grid.cell_measure
        values = [(s * cell) ** (1.0 / rf) for s in sums]
    expo = 1.0 / float(r) - 1.0 / float(p)
    return [v / m ** expo for v, m in zip(values, measures)]


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
    The one-set form of :func:`dualize_superlevel_sets`.
    """
    trimmed, measures = _major_one_set(f, E, p, C)
    (ratio,) = _lr_ratios(f, trimmed, measures, r, p)
    return MeasurableSet.from_mask(f.grid, trimmed[0]), ratio


def dualize_superlevel_sets(
    f: GridFunction, r: Exponent, p: Exponent, C: float
) -> tuple[list[float], list[float]]:
    """Dualize every superlevel set of |f| in one pass.

    The sets are {|f| > v (1 - 1e-12)}, one for each distinct value v > 0 of
    |f|, in increasing v.  Returns each set's share |E~|/|E| and its ratio
    ||f 1_E~||_r / |E|^(1/r - 1/p), both as :func:`dualize_weak_via_Lr`
    computes them for that set.  Raises nothing: a set whose share is below
    1/2 (where the one-set form raises :class:`MajorSubsetError`) is left to
    the caller.
    """
    mags = np.abs(f.samples)
    levels = np.unique(mags)
    cuts = levels[levels > 0] * (1 - 1e-12)
    cuts = cuts[cuts < levels[-1]]  # empty where v (1 - 1e-12) rounds to v = max |f|
    masks = mags > np.reshape(cuts, (-1,) + (1,) * mags.ndim)
    trimmed, shares, measures = _major_subset(f, masks, p, C)
    return shares, _lr_ratios(f, trimmed, measures, r, p)


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
    trimmed, (measure,) = _major_one_set(f, E, p, C)
    pairing = abs(complex(np.sum(f.samples * trimmed[0]) * f.grid.cell_measure))
    return (MeasurableSet.from_mask(f.grid, trimmed[0]),
            float(pairing / measure ** (1.0 - 1.0 / float(p))))
