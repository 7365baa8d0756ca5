"""Sizes, energies, maximal and square operators, and the stopping time.

All interval-indexed quantities are driven by weighted averages

    avg(I) = (1/|I|) * integral |f| * chi(I_n)^M,

where chi is the polynomial-decay bump of the (optionally translated)
interval, periodized on the torus.  Full-scale sweeps are computed with one
circular correlation per scale; single intervals are evaluated directly so
witnesses can be re-checked independently of the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicInterval,
    WavePacketFamily,
    collection_plus,
    interval_indices,
    torus_bump_samples,
)
from .errors import MajorSubsetError, ShapeError
from .grid import GridFunction, SampleGrid, max_scale
from .norms import MeasurableSet, lp_norm, weak_lp_norm

__all__ = [
    "SizeReport",
    "EnergyReport",
    "ExceptionalSet",
    "StoppingCell",
    "LevelSelection",
    "StoppingForest",
    "size",
    "size_single",
    "size_tilde",
    "energy",
    "maximal",
    "shifted_square",
    "exceptional_set",
    "stopping_decompose",
    "average_single",
    "scale_averages",
]

_LEVEL_CAP = 80  # levels beyond this are lumped (averages below 2**-80)


# ---------------------------------------------------------------------------
# Weighted interval averages
# ---------------------------------------------------------------------------

def _require_1d(f: GridFunction):
    if f.grid.dimension != 1 or f.vector_shape:
        raise ShapeError("interval-indexed analysis expects scalar 1d functions")


def average_single(
    f: GridFunction,
    interval: DyadicInterval,
    M: int = 10,
    shift_n: int = 0,
) -> float:
    """(1/|I|) * integral |f| chi(I + shift_n |I|)^M, by direct quadrature."""
    _require_1d(f)
    w = torus_bump_samples(f.grid, interval, M, shift_n)
    dx = f.grid.spacing
    return float(np.dot(np.abs(f.samples), w).real * dx / interval.length)


def scale_averages(
    f: GridFunction,
    scale: int,
    M: int = 10,
    shift_n: int = 0,
) -> np.ndarray:
    """Averages for every position at one scale, via circular correlation."""
    _require_1d(f)
    grid = f.grid
    base = torus_bump_samples(grid, DyadicInterval(scale, 0), M, shift_n)
    fa = np.abs(f.samples)
    corr = np.fft.irfft(np.fft.rfft(fa) * np.conj(np.fft.rfft(base)), n=grid.sample_count)
    stride = round(2.0 ** (-scale) / grid.spacing)
    kappa = grid.log2_period()
    positions = 2 ** (scale + kappa)
    idx = (np.arange(positions) * stride) % grid.sample_count
    length = 2.0 ** (-scale)
    return np.maximum(corr[idx] * grid.spacing / length, 0.0)


class _AverageCache:
    """Memoized per-interval averages for one (function, exponent, shift)."""

    def __init__(self, f: GridFunction, M: int, shift_n: int = 0):
        self.f = f
        self.M = M
        self.shift_n = shift_n
        self._vals: dict[DyadicInterval, float] = {}

    def __call__(self, interval: DyadicInterval) -> float:
        v = self._vals.get(interval)
        if v is None:
            v = average_single(self.f, interval, self.M, self.shift_n)
            self._vals[interval] = v
        return v


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeReport:
    value: float
    witness: DyadicInterval
    flavor: str
    shift: int = 0


_CHI_FLAVORS = ("modified", "bht", "shifted")


def size_single(
    f: GridFunction,
    interval: DyadicInterval,
    flavor: str,
    family: list[DyadicInterval] | None = None,
    M: int = 10,
    shift_n: int = 0,
) -> float:
    """The quantity whose supremum over the collection defines the size."""
    if flavor in _CHI_FLAVORS:
        return average_single(f, interval, M, shift_n)
    if flavor == "non-lacunary":
        fam = WavePacketFamily(f.grid, [interval], "non-lacunary")
        coef = fam.coefficients(f)[0]
        return abs(coef) / math.sqrt(interval.length)
    if flavor == "lacunary":
        if family is None:
            raise ValueError("lacunary size needs the ambient family")
        sq = _local_square_function(f, family, interval)
        return weak_lp_norm(sq, 1) / interval.length
    raise ValueError(f"unknown size flavor {flavor!r}")


def _square_terms(f: GridFunction, family: list[DyadicInterval]) -> list[float]:
    """|<f, psi_I>|^2 / |I| for each I in the family (lacunary packets)."""
    coefs = WavePacketFamily(f.grid, family, "lacunary").coefficients(f)
    return [abs(c) ** 2 / iv.length for iv, c in zip(family, coefs)]


def _root_square_function(
    grid: SampleGrid,
    family: list[DyadicInterval],
    cells: list[np.ndarray],
    terms: list[float],
    root: DyadicInterval,
) -> GridFunction:
    """sqrt(sum over I in family, I <= root of terms[I] * 1_I), members
    accumulated in family order; ``cells[I]`` are the sample indices of I."""
    acc = np.zeros(grid.sample_count)
    for iv, cell, term in zip(family, cells, terms):
        if root.contains(iv):
            acc[cell] += term
    return GridFunction(grid, np.sqrt(acc).astype(complex))


def _local_square_function(
    f: GridFunction,
    family: list[DyadicInterval],
    root: DyadicInterval,
) -> GridFunction:
    """sqrt(sum over I in family, I <= root of |<f, psi_I>|^2 / |I| * 1_I).

    Transforms f for this root alone; :func:`size` and :func:`energy` share
    one set of coefficients across all roots instead.
    """
    grid = f.grid
    members = [iv for iv in family if root.contains(iv)]
    cells = [interval_indices(grid, iv) for iv in members]
    return _root_square_function(grid, members, cells, _square_terms(f, members), root)


def _lacunary_weak_norms(f: GridFunction, family: list[DyadicInterval]) -> list[float]:
    """||local square function of I||_(L^1,inf) for every root I in the family."""
    grid = f.grid
    terms = _square_terms(f, family)
    cells = [interval_indices(grid, iv) for iv in family]
    return [
        weak_lp_norm(_root_square_function(grid, family, cells, terms, root), 1)
        for root in family
    ]


def size(
    f: GridFunction,
    family: list[DyadicInterval],
    flavor: str,
    M: int = 10,
    shift_n: int = 0,
) -> SizeReport:
    """Supremum of the per-interval size quantity over the family."""
    if not family:
        raise ValueError("size of an empty family is undefined")
    if flavor in _CHI_FLAVORS:
        cache = _AverageCache(f, M, shift_n)
        vals = [cache(iv) for iv in family]
    elif flavor == "non-lacunary":
        fam = WavePacketFamily(f.grid, family, "non-lacunary")
        coefs = fam.coefficients(f)
        vals = [abs(c) / math.sqrt(iv.length) for iv, c in zip(family, coefs)]
    elif flavor == "lacunary":
        norms = _lacunary_weak_norms(f, family)
        vals = [nrm / iv.length for iv, nrm in zip(family, norms)]
    else:
        raise ValueError(f"unknown size flavor {flavor!r}")
    best = int(np.argmax(vals))
    return SizeReport(float(vals[best]), family[best], flavor, shift_n)


def size_tilde(
    f: GridFunction,
    family: list[DyadicInterval],
    I0: DyadicInterval | None = None,
    M: int = 10,
    min_scale: int | None = None,
) -> SizeReport:
    """Modified size: chi-averages over the enlarged collection family+."""
    if not family:
        raise ValueError("size of an empty family is undefined")
    if I0 is None and min_scale is None:
        min_scale = -f.grid.log2_period()
    plus = collection_plus(family, I0, min_scale=min_scale)
    if not plus:
        raise ValueError("no enlarged intervals: family lies outside 3*I0")
    cache = _AverageCache(f, M)
    vals = [cache(iv) for iv in plus]
    best = int(np.argmax(vals))
    return SizeReport(float(vals[best]), plus[best], "modified", 0)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    value: float
    witness_level: int
    witness_family: tuple[DyadicInterval, ...]


def _greedy_disjoint(intervals: list[DyadicInterval]) -> list[DyadicInterval]:
    """Maximal-total-length disjoint subfamily (exact for dyadic input)."""
    accepted: dict[int, set[int]] = {}
    out = []
    for iv in sorted(intervals, key=lambda i: (i.scale, i.position)):
        contained = False
        for js, positions in accepted.items():
            if js <= iv.scale and (iv.position >> (iv.scale - js)) in positions:
                contained = True
                break
        if not contained:
            accepted.setdefault(iv.scale, set()).add(iv.position)
            out.append(iv)
    return out


def energy(
    f: GridFunction,
    family: list[DyadicInterval],
    flavor: str = "non-lacunary",
    M: int = 10,
) -> EnergyReport:
    """sup over levels n and disjoint subfamilies D of 2^n sum |I|.

    Candidate thresholds are the realized dyadic levels of the per-interval
    coefficients; for each, a maximal disjoint subfamily is extracted
    greedily (coarsest first), which is exact for dyadic families.
    """
    if not family:
        raise ValueError("energy of an empty family is undefined")
    if flavor == "non-lacunary":
        fam = WavePacketFamily(f.grid, family, "non-lacunary")
        coefs = np.abs(fam.coefficients(f))
        weights = np.array([math.sqrt(iv.length) for iv in family])
        cvals = coefs / weights
    elif flavor == "lacunary":
        norms = _lacunary_weak_norms(f, family)
        cvals = np.array([nrm / math.sqrt(iv.length) for iv, nrm in zip(family, norms)])
    else:
        raise ValueError(f"unknown energy flavor {flavor!r}")
    positive = cvals > 0
    if not positive.any():
        return EnergyReport(0.0, 0, ())
    levels = sorted({int(np.floor(np.log2(c))) for c in cvals[positive]}, reverse=True)
    best_value, best_level, best_family = 0.0, 0, ()
    for n in levels:
        thr = 2.0 ** n
        qualifying = [iv for iv, c in zip(family, cvals) if c >= thr]
        disjoint = _greedy_disjoint(qualifying)
        value = thr * sum(iv.length for iv in disjoint)
        if value > best_value:
            best_value, best_level, best_family = value, n, tuple(disjoint)
    return EnergyReport(best_value, best_level, best_family)


# ---------------------------------------------------------------------------
# Maximal and square operators
# ---------------------------------------------------------------------------

def _analysis_scales(grid: SampleGrid, scales: range | None) -> range:
    if scales is not None:
        return scales
    return range(-grid.log2_period(), max_scale(grid) + 1)


def maximal(
    f: GridFunction,
    shift_n: int = 0,
    M: int = 10,
    scales: range | None = None,
) -> GridFunction:
    """Shifted dyadic maximal function: at x, the sup over budgeted dyadic
    I containing x of the chi-weighted average of |f| on I + shift_n |I|."""
    _require_1d(f)
    grid = f.grid
    out = np.zeros(grid.sample_count)
    for j in _analysis_scales(grid, scales):
        avgs = scale_averages(f, j, M, shift_n)
        stride = grid.sample_count // len(avgs)
        np.maximum(out, np.repeat(avgs, stride), out=out)
    return GridFunction(grid, out.astype(complex))


def shifted_square(
    f: GridFunction,
    shift_n: int = 0,
    scales: range | None = None,
) -> GridFunction:
    """(sum over I of |<f, psi(I_n)>|^2 / |I| * 1_I)^(1/2), over the budget.

    Scales default to the packet budget (windows with interior frequencies).
    """
    from .dyadic import min_packet_scale

    _require_1d(f)
    grid = f.grid
    if scales is None:
        scales = range(min_packet_scale(grid), max_scale(grid) + 1)
    acc = np.zeros(grid.sample_count)
    fam = WavePacketFamily(grid, [], "lacunary")
    for j, coefs in fam.scale_coefficients(f, scales, shift_n).items():
        stride = grid.sample_count // len(coefs)
        acc += np.repeat(np.abs(coefs) ** 2 / 2.0 ** (-j), stride)
    return GridFunction(grid, np.sqrt(acc).astype(complex))


# ---------------------------------------------------------------------------
# Exceptional sets
# ---------------------------------------------------------------------------

@dataclass
class ExceptionalSet:
    omega: MeasurableSet
    thresholds: tuple[float, ...]
    protected: MeasurableSet
    ratio: float


def exceptional_set(
    protect: MeasurableSet,
    inputs: list[tuple[GridFunction, GridFunction | None]],
    C: float = 4.0,
    M: int = 10,
) -> ExceptionalSet:
    """Union of maximal-function super-level sets at thresholds
    C ||g w||_1 / |E|; fails loudly when the protected remainder is not major."""
    measure = protect.measure
    if measure <= 0:
        raise ValueError("protected set must have positive measure")
    grid = protect.grid
    omega_mask = np.zeros(grid.sample_count, dtype=bool)
    thresholds = []
    for g, w in inputs:
        h = g if w is None else g * w
        thr = C * lp_norm(h, 1) / measure
        thresholds.append(thr)
        mx = maximal(h, 0, M)
        omega_mask |= np.abs(mx.samples) > thr
    tilde = protect.minus_mask(omega_mask)
    ratio = tilde.measure / measure
    if ratio < 0.5:
        raise MajorSubsetError(
            f"exceptional set swallows the protected set: ratio {ratio:.4f} "
            f"(C={C}); raise C",
            achieved_ratio=ratio,
        )
    omega = MeasurableSet.from_mask(grid, omega_mask)
    return ExceptionalSet(omega, tuple(thresholds), tilde, ratio)


# ---------------------------------------------------------------------------
# Triple stopping time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppingCell:
    d: int
    n1: int
    n2: int
    n3: int
    cell: DyadicInterval
    members: tuple[DyadicInterval, ...]


@dataclass(frozen=True)
class LevelSelection:
    d: int
    axis: int
    level: int
    interval: DyadicInterval
    members: tuple[DyadicInterval, ...]


@dataclass
class StoppingForest:
    """Output of the triple stopping time.

    ``cells`` partition the input family: every interval appears in exactly
    one cell.  ``selections`` are the per-axis level collections (axis 1, 2
    protect the two input sets, axis 3 the trimmed third set).

    JSON layout (deterministic; intervals as [scale, position], cells sorted
    by (d, n1, n2, n3, cell), selections by (d, axis, level, interval)):

        {"params": {"C": .., "M": .., "I0": [j, m]},
         "exceptional": {"ratio": .., "thresholds": [..]},
         "measure_constants": {"1": .., "2": .., "3": ..},
         "cells": [{"d": .., "levels": [n1, n2, n3],
                    "cell": [j, m], "members": [[j, m], ..]}, ..],
         "selections": [{"d": .., "axis": .., "level": ..,
                         "interval": [j, m], "members": [[j, m], ..]}, ..]}
    """

    cells: list[StoppingCell]
    selections: list[LevelSelection]
    exceptional: ExceptionalSet
    root: DyadicInterval
    C: float
    M: int
    measure_constants: dict[int, float] = field(default_factory=dict)

    def all_members(self) -> list[DyadicInterval]:
        out = []
        for cell in self.cells:
            out.extend(cell.members)
        return out

    def to_json_dict(self) -> dict:
        def iv(i: DyadicInterval):
            return [i.scale, i.position]

        cells = sorted(
            self.cells, key=lambda c: (c.d, c.n1, c.n2, c.n3, c.cell.scale, c.cell.position)
        )
        sels = sorted(
            self.selections,
            key=lambda s: (s.d, s.axis, s.level, s.interval.scale, s.interval.position),
        )
        return {
            "params": {"C": self.C, "M": self.M, "I0": iv(self.root)},
            "exceptional": {
                "ratio": self.exceptional.ratio,
                "thresholds": list(self.exceptional.thresholds),
            },
            "measure_constants": {
                str(k): self.measure_constants.get(k) for k in (1, 2, 3)
            },
            "cells": [
                {
                    "d": c.d,
                    "levels": [c.n1, c.n2, c.n3],
                    "cell": iv(c.cell),
                    "members": sorted(map(iv, c.members)),
                }
                for c in cells
            ],
            "selections": [
                {
                    "d": s.d,
                    "axis": s.axis,
                    "level": s.level,
                    "interval": iv(s.interval),
                    "members": sorted(map(iv, s.members)),
                }
                for s in sels
            ],
        }


def _distance_to_mask(grid: SampleGrid, mask: np.ndarray) -> np.ndarray:
    """Torus distance (length units) from each sample to the nearest True."""
    n = grid.sample_count
    if mask.all():
        return np.zeros(n)
    if not mask.any():
        return np.full(n, np.inf)
    pos = np.flatnonzero(mask)
    ext = np.concatenate([pos - n, pos, pos + n]).astype(float)
    i = np.arange(n, dtype=float)
    right = np.searchsorted(ext, i)
    left = right - 1
    d = np.minimum(np.abs(i - ext[left]), np.abs(ext[right % len(ext)] - i))
    return d * grid.spacing


def _ancestor_chain(iv: DyadicInterval, root: DyadicInterval) -> list[DyadicInterval]:
    """Ancestors of iv inside root, coarsest (root) first."""
    chain = []
    j = iv
    while True:
        chain.append(j)
        if j == root:
            break
        j = j.parent()
    chain.reverse()
    return chain


def _single_stopping(
    stock: list[DyadicInterval],
    indicator: GridFunction,
    root: DyadicInterval,
    M: int,
) -> tuple[dict[DyadicInterval, tuple[int, DyadicInterval]], list[tuple[int, DyadicInterval, tuple]]]:
    """One greedy level sweep of the stopping time over a stock of intervals.

    Returns the per-interval assignment (level, selected ancestor) and the
    level records.  Levels are clamped at 0; the first level's upper bracket
    is the bump-tail constant rather than 1 since chi-averages may exceed 1.
    """
    avg = _AverageCache(indicator, M)
    remaining = list(stock)
    assignment: dict[DyadicInterval, tuple[int, DyadicInterval]] = {}
    records: list[tuple[int, DyadicInterval, tuple]] = []

    def stilde() -> float:
        plus = collection_plus(remaining, bound=root)
        return max((avg(j) for j in plus), default=0.0)

    s = stilde()
    n = max(0, int(math.floor(-math.log2(min(s, 1.0)))) if s > 0 else _LEVEL_CAP + 1)
    while remaining:
        s = stilde()
        if s <= 0 or n > _LEVEL_CAP:
            records.append((_LEVEL_CAP + 1, root, tuple(remaining)))
            for iv in remaining:
                assignment[iv] = (_LEVEL_CAP + 1, root)
            remaining = []
            break
        lo = 2.0 ** (-n - 1)
        if s <= lo:
            n = max(n + 1, int(math.floor(-math.log2(s))))
            continue
        candidates = [iv for iv in remaining if avg(iv) > lo]
        if not candidates:
            n += 1
            continue
        top = 2.0 ** (-n) * (1 + 1e-9) if n >= 1 else s * (1 + 1e-9)
        chosen: dict[DyadicInterval, None] = {}
        for iv in candidates:
            side = iv
            for anc in _ancestor_chain(iv, root):
                if lo * (1 - 1e-12) <= avg(anc) <= top:
                    side = anc
                    break
            chosen.setdefault(side, None)
        for side in sorted(chosen, key=lambda i: (i.scale, i.position)):
            members = tuple(iv for iv in remaining if side.contains(iv))
            if not members:
                continue
            records.append((n, side, members))
            for iv in members:
                assignment[iv] = (n, side)
            member_set = set(members)
            remaining = [iv for iv in remaining if iv not in member_set]
        n += 1
    return assignment, records


def stopping_decompose(
    family: list[DyadicInterval],
    E1: MeasurableSet,
    E2: MeasurableSet,
    E3: MeasurableSet,
    I0: DyadicInterval,
    C: float = 4.0,
    M: int = 10,
) -> StoppingForest:
    """Triple stopping-time decomposition of a localized interval family.

    Builds the exceptional set from the first two indicators (weighted by
    the root bump), buckets the family by dyadic distance to its complement,
    runs one stopping sweep per protected set inside each bucket (the third
    sweep sees the trimmed set and the doubled decay exponent), and
    intersects the three selections into cells.
    """
    grid = E1.grid
    family = list(family)
    outside = [iv for iv in family if not I0.contains(iv)]
    if outside:
        raise ValueError(f"family must be contained in the root: {outside[:3]}")
    root_bump = GridFunction(grid, torus_bump_samples(grid, I0, M).astype(complex))
    exc = exceptional_set(E3, [(E1.indicator, root_bump), (E2.indicator, root_bump)], C, M)

    comp_mask = ~exc.omega.mask
    dist = _distance_to_mask(grid, comp_mask)
    buckets: dict[int, list[DyadicInterval]] = {}
    for iv in family:
        idx = interval_indices(grid, iv)
        d_iv = float(dist[idx].min())
        d = int(math.floor(math.log2(1.0 + d_iv / iv.length)))
        buckets.setdefault(d, []).append(iv)

    cells: dict[tuple, list[DyadicInterval]] = {}
    selections: list[LevelSelection] = []

    for d in sorted(buckets):
        stock = buckets[d]
        sweeps = {}
        for axis, (ind, expo) in {
            1: (E1.indicator, M),
            2: (E2.indicator, M),
            3: (exc.protected.indicator, 2 * M),
        }.items():
            assign, records = _single_stopping(stock, ind, I0, expo)
            sweeps[axis] = assign
            for n, side, members in records:
                selections.append(LevelSelection(d, axis, n, side, members))
        for iv in stock:
            n1, s1 = sweeps[1][iv]
            n2, s2 = sweeps[2][iv]
            n3, s3 = sweeps[3][iv]
            cell = max((s1, s2, s3), key=lambda s: s.scale)
            key = (d, n1, n2, n3, cell)
            cells.setdefault(key, []).append(iv)

    cell_list = [
        StoppingCell(d, n1, n2, n3, cell, tuple(members))
        for (d, n1, n2, n3, cell), members in cells.items()
    ]

    constants: dict[int, float] = {}
    weights = {
        1: lp_norm(E1.indicator, 1, weight=root_bump),
        2: lp_norm(E2.indicator, 1, weight=root_bump),
        3: lp_norm(exc.protected.indicator, 1, weight=root_bump),
    }
    per_level: dict[tuple[int, int, int], float] = {}
    for sel in selections:
        key = (sel.axis, sel.d, sel.level)
        per_level[key] = per_level.get(key, 0.0) + sel.interval.length
    for (axis, _d, n), total in per_level.items():
        if n > _LEVEL_CAP or weights[axis] <= 0:
            continue
        c = total / (2.0 ** n * weights[axis])
        constants[axis] = max(constants.get(axis, 0.0), c)

    return StoppingForest(
        cells=cell_list,
        selections=selections,
        exceptional=exc,
        root=I0,
        C=C,
        M=M,
        measure_constants=constants,
    )
