"""Sizes, energies, maximal and square operators, and the stopping time.

All interval-indexed quantities are driven by weighted averages

    avg(I) = (1/|I|) * integral |f| * chi(I_n)^M,

where chi is the polynomial-decay bump of the (optionally translated)
interval, periodized on the torus.  Full-scale sweeps are computed with one
circular correlation per scale.  A list of intervals (the modified size, each
stopping sweep) reads one batched pass, |f| taken once and one dot product
per bump; :func:`average_single` evaluates one interval directly and is the
oracle the witnesses and level brackets are re-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dyadic import (
    DyadicInterval,
    WavePacketFamily,
    _stride,
    collection_plus,
    packet_scales,
    torus_bump_samples,
)
from .errors import MajorSubsetError, ShapeError
from .grid import GridFunction, SampleGrid, scale_range
from .norms import MeasurableSet, _weak_norms, lp_norm

__all__ = [
    "SizeReport",
    "EnergyReport",
    "ExceptionalSet",
    "StoppingCell",
    "LevelSelection",
    "StoppingForest",
    "size",
    "size_tilde",
    "energy",
    "size_energy",
    "maximal",
    "shifted_square",
    "exceptional_set",
    "stopping_decompose",
    "average_single",
]

_LEVEL_CAP = 80  # levels beyond this are lumped (averages below 2**-80)
_C = 4.0  # exceptional-set constant of the triple stopping time
_M = 10  # decay exponent of the chi-bumps


# ---------------------------------------------------------------------------
# Weighted interval averages
# ---------------------------------------------------------------------------

def _require_1d(f: GridFunction):
    if f.grid.dimension != 1 or f.vector_shape:
        raise ShapeError("interval-indexed analysis expects scalar 1d functions")


def average_single(
    f: GridFunction,
    interval: DyadicInterval,
    M: int = _M,
) -> float:
    """(1/|I|) * integral |f| chi(I)^M, by direct quadrature."""
    _require_1d(f)
    w = torus_bump_samples(f.grid, interval, M)
    dx = f.grid.spacing
    return float(np.dot(np.abs(f.samples), w).real * dx / interval.length)


def _averages(f: GridFunction, intervals: list[DyadicInterval], M: int) -> np.ndarray:
    """:func:`average_single` of each interval, |f| taken once.  Each bump
    gets its own ``np.dot``, as there, so every value equals it bit for bit;
    one matrix product would round differently."""
    _require_1d(f)
    fa = np.abs(f.samples)
    dots = np.array([np.dot(fa, torus_bump_samples(f.grid, iv, M)) for iv in intervals])
    lengths = np.array([iv.length for iv in intervals])
    return dots * f.grid.spacing / lengths


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeReport:
    value: float
    witness: DyadicInterval


def _non_lacunary_values(f: GridFunction, family: list[DyadicInterval]) -> np.ndarray:
    """|<f, psi_I>| / |I|^(1/2) for each I in the family (non-lacunary
    packets): the quantity of the non-lacunary size and energy."""
    coefs = WavePacketFamily(f.grid, family).coefficients(f, "non-lacunary")
    return np.abs(coefs) / np.array([math.sqrt(iv.length) for iv in family])


def _square_terms(f: GridFunction, family: list[DyadicInterval]) -> list[float]:
    """|<f, psi_I>|^2 / |I| for each I in the family (lacunary packets)."""
    coefs = WavePacketFamily(f.grid, family).coefficients(f, "lacunary")
    return [abs(c) ** 2 / iv.length for iv, c in zip(family, coefs)]


def _containment(roots: list[DyadicInterval], members: list[DyadicInterval]) -> np.ndarray:
    """Boolean matrix of ``root.contains(member)``, roots by members, from
    the integer scales and positions."""
    r_scale = np.array([iv.scale for iv in roots], dtype=np.int64)[:, None]
    r_pos = np.array([iv.position for iv in roots], dtype=np.int64)[:, None]
    m_scale = np.array([iv.scale for iv in members], dtype=np.int64)[None, :]
    m_pos = np.array([iv.position for iv in members], dtype=np.int64)[None, :]
    depth = m_scale - r_scale
    # int64 shifts past 63 bits are undefined; 63 already gives 0 or -1
    return (depth >= 0) & ((m_pos >> np.clip(depth, 0, 63)) == r_pos)


def _lacunary_weak_norms(f: GridFunction, family: list[DyadicInterval]) -> list[float]:
    """||local square function of I||_(L^1,inf) for every root I in the family.

    All roots at once: each member's term goes into the row of every root
    containing it, members in family order, so each (root, sample) entry
    sums as one root's square function accumulated alone would; then each
    row's weak L^1 norm is :func:`~wavetile.norms.weak_lp_norm`'s rule,
    ``norms._weak_norms``.
    """
    grid = f.grid
    n = grid.sample_count
    terms = np.array(_square_terms(f, family))
    root, member = np.nonzero(_containment(family, family))
    # the packet sweep raised on scales outside the packet budget, so each
    # member covers _stride samples from position * stride on, mod n
    widths = np.array([_stride(grid, iv.scale) for iv in family])[member]
    starts = np.array([iv.position for iv in family])[member] * widths
    offsets = np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
    acc = np.zeros((len(family), n))
    # unbuffered, in index order: each row lists its members in family order
    np.add.at(
        acc,
        (np.repeat(root, widths), (np.repeat(starts, widths) + offsets) % n),
        np.repeat(terms[member], widths),
    )
    return _weak_norms(np.sqrt(acc), grid.cell_measure, 1.0).tolist()


def _size_report(family: list[DyadicInterval], vals: np.ndarray) -> SizeReport:
    best = int(np.argmax(vals))
    return SizeReport(float(vals[best]), family[best])


def size(
    f: GridFunction,
    family: list[DyadicInterval],
    M: int = _M,
) -> SizeReport:
    """Supremum of the chi-averages over the family (the modified size);
    the packet sizes come from :func:`size_energy`."""
    if not family:
        raise ValueError("size of an empty family is undefined")
    return _size_report(family, _averages(f, family, M))


def size_tilde(
    f: GridFunction,
    family: list[DyadicInterval],
    I0: DyadicInterval,
    M: int = _M,
) -> SizeReport:
    """Modified size: chi-averages over the enlarged collection family+
    inside 3*I0."""
    if not family:
        raise ValueError("size of an empty family is undefined")
    plus = collection_plus(family, I0)
    if not plus:
        raise ValueError("no enlarged intervals: family lies outside 3*I0")
    return size(f, plus, M)


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


def _energy_report(family: list[DyadicInterval], cvals: np.ndarray) -> EnergyReport:
    """The energy given each interval's coefficient (see :func:`energy`)."""
    positive = cvals > 0
    # floor(log2 c) is the binary exponent; np.log2 rounds up just below 2**k
    levels = sorted(set((np.frexp(cvals[positive])[1] - 1).tolist()), reverse=True)
    best_value, best_level, best_family = 0.0, 0, ()
    for n in levels:
        thr = 2.0 ** n
        qualifying = [iv for iv, c in zip(family, cvals) if c >= thr]
        disjoint = _greedy_disjoint(qualifying)
        value = thr * sum(iv.length for iv in disjoint)
        if value > best_value:
            best_value, best_level, best_family = value, n, tuple(disjoint)
    return EnergyReport(best_value, best_level, best_family)


def energy(f: GridFunction, family: list[DyadicInterval]) -> EnergyReport:
    """The non-lacunary energy: sup over levels n and disjoint subfamilies
    D of 2^n sum |I|.

    Candidate thresholds are the realized dyadic levels of the per-interval
    coefficients; for each, a maximal disjoint subfamily is extracted
    greedily (coarsest first), which is exact for dyadic families.
    """
    return size_energy(f, family, "non-lacunary")[1]


def size_energy(
    f: GridFunction,
    family: list[DyadicInterval],
    flavor: str,
) -> tuple[SizeReport, EnergyReport]:
    """The size and the energy of f over the family for a packet flavor,
    from one sweep of f.

    Per interval both read |<f, psi_I>| / |I|^(1/2) (non-lacunary), or the
    local square function's weak L^1 norm, divided by |I| for the size and
    by |I|^(1/2) for the energy (lacunary).
    """
    if not family:
        raise ValueError("size and energy of an empty family are undefined")
    _require_1d(f)
    if flavor == "non-lacunary":
        sizes = energies = _non_lacunary_values(f, family)
    elif flavor == "lacunary":
        norms = np.array(_lacunary_weak_norms(f, family))
        lengths = np.array([iv.length for iv in family])
        sizes, energies = norms / lengths, norms / np.sqrt(lengths)
    else:
        raise ValueError(f"unknown packet flavor {flavor!r}")
    return _size_report(family, sizes), _energy_report(family, energies)


# ---------------------------------------------------------------------------
# Maximal and square operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _bump_spectrum(n, period, scale, position, decay_exponent):
    """conj(rfft) of the torus bump, keyed as ``dyadic._torus_bump_cached``."""
    bump = torus_bump_samples(SampleGrid(n, period), DyadicInterval(scale, position),
                              decay_exponent)
    spectrum = np.conj(np.fft.rfft(bump))
    spectrum.flags.writeable = False
    return spectrum


def maximal(f: GridFunction, shift_n: int = 0) -> GridFunction:
    """Shifted dyadic maximal function: at x, the sup over budgeted dyadic
    I containing x of the chi-weighted average of |f| on I + shift_n |I|.

    |f| is transformed once; each scale correlates it with the position-0
    bump, whose spectrum is cached, and reads the correlation every stride.
    """
    _require_1d(f)
    grid = f.grid
    n = grid.sample_count
    fa_hat = np.fft.rfft(np.abs(f.samples))
    out = np.zeros(n)
    for j in scale_range(grid):
        spectrum = _bump_spectrum(n, grid.period_length, j, shift_n, _M)
        corr = np.fft.irfft(fa_hat * spectrum, n=n)
        stride = _stride(grid, j)
        avgs = np.maximum(corr[::stride] * grid.spacing / 2.0 ** (-j), 0.0)
        np.maximum(out, np.repeat(avgs, stride), out=out)
    return GridFunction(grid, out.astype(complex))


def shifted_square(f: GridFunction, shift_n: int = 0) -> GridFunction:
    """(sum over I of |<f, psi(I_n)>|^2 / |I| * 1_I)^(1/2) over the packet
    budget, :func:`~wavetile.dyadic.packet_scales`."""
    _require_1d(f)
    grid = f.grid
    acc = np.zeros(grid.sample_count)
    fam = WavePacketFamily(grid, [])
    sweep = fam.scale_coefficients(f, packet_scales(grid), "lacunary", shift_n)
    for j, coefs in sweep.items():
        acc += np.repeat(np.abs(coefs) ** 2 / 2.0 ** (-j), _stride(grid, j))
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
    C: float = _C,
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
        mx = maximal(h)
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
        return [iv for cell in self.cells for iv in cell.members]

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


def _bucket(stock: list[DyadicInterval], root: DyadicInterval) -> tuple:
    """What the three sweeps of one distance bucket share: collection_plus
    (stock, root) in (scale, position) order, its containment table against
    the stock, each stock member's row in it, and the rows inside the root."""
    plus = sorted(collection_plus(stock, root))
    row = {iv: k for k, iv in enumerate(plus)}
    return (plus, _containment(plus, stock), np.array([row[iv] for iv in stock]),
            _containment([root], plus)[0])


def _sweep(stock: list[DyadicInterval], bucket: tuple, indicator: GridFunction, M: int,
           root: DyadicInterval) -> tuple[list[tuple], list[tuple]]:
    """One greedy level sweep of the stopping time over a bucket's stock.

    Reads the chi-averages of the bucket's collection in one pass.  Returns
    each stock member's (level, selected ancestor) and the level records.
    Levels are clamped at 0; the first level's upper bracket is the
    bump-tail constant rather than 1 since chi-averages may exceed 1.
    """
    plus, cont, rows, inside = bucket
    avg = _averages(indicator, plus, M)
    remaining = np.ones(len(stock), dtype=bool)
    assignment: list[tuple[int, DyadicInterval]] = [None] * len(stock)
    records: list[tuple[int, DyadicInterval, tuple]] = []

    def select(level: int, side: DyadicInterval, members: np.ndarray):
        idx = np.flatnonzero(members).tolist()
        records.append((level, side, tuple(stock[i] for i in idx)))
        for i in idx:
            assignment[i] = (level, side)
        remaining[idx] = False

    def stilde() -> float:
        # over collection_plus(remaining, root): the rows above a remaining member
        return float(avg[cont[:, remaining].any(axis=1)].max())

    # s changes only when remaining shrinks, at the end of a selecting level
    s = stilde()
    n = max(0, int(math.floor(-math.log2(min(s, 1.0)))) if s > 0 else _LEVEL_CAP + 1)
    while remaining.any():
        if s <= 0 or n > _LEVEL_CAP:
            select(_LEVEL_CAP + 1, root, remaining)
            break
        lo = 2.0 ** (-n - 1)
        if s <= lo:
            n = max(n + 1, int(math.floor(-math.log2(s))))
            continue
        candidates = remaining & (avg[rows] > lo)
        if not candidates.any():
            n += 1
            continue
        top = 2.0 ** (-n) * (1 + 1e-9) if n >= 1 else s * (1 + 1e-9)
        # each candidate's coarsest ancestor inside the root with its average
        # in the bracket (the first hit in scale order), else the candidate
        in_bracket = inside & (avg >= lo * (1 - 1e-12)) & (avg <= top)
        hits = cont[:, candidates] & in_bracket[:, None]
        sides = np.where(hits.any(axis=0), hits.argmax(axis=0), rows[candidates])
        for k in np.unique(sides).tolist():
            members = remaining & cont[k]
            if members.any():
                select(n, plus[k], members)
        n += 1
        if remaining.any():
            s = stilde()
    return assignment, records


def stopping_decompose(
    family: list[DyadicInterval],
    E1: MeasurableSet,
    E2: MeasurableSet,
    E3: MeasurableSet,
    I0: DyadicInterval,
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
    root_bump = GridFunction(grid, torus_bump_samples(grid, I0, _M).astype(complex))
    exc = exceptional_set(E3, [(E1.indicator, root_bump), (E2.indicator, root_bump)])

    dist = _distance_to_mask(grid, ~exc.omega.mask)
    # per scale, the minima over blocks of min(_stride, n) samples, which
    # tile the torus: the interval (j, m) reads block m mod the block count
    minima: dict[int, np.ndarray] = {}
    buckets: dict[int, list[DyadicInterval]] = {}
    for iv in family:
        if iv.scale not in minima:
            stride = min(_stride(grid, iv.scale), dist.size)
            minima[iv.scale] = dist.reshape(-1, stride).min(axis=1)
        block_min = minima[iv.scale]
        d_iv = float(block_min[iv.position % len(block_min)])
        d = int(math.floor(math.log2(1.0 + d_iv / iv.length)))
        buckets.setdefault(d, []).append(iv)

    indicators = {1: E1.indicator, 2: E2.indicator, 3: exc.protected.indicator}
    cells: dict[tuple, list[DyadicInterval]] = {}
    selections: list[LevelSelection] = []
    for d in sorted(buckets):
        stock = buckets[d]
        bucket = _bucket(stock, I0)
        sweeps = []
        for axis, ind in indicators.items():
            assign, records = _sweep(stock, bucket, ind, 2 * _M if axis == 3 else _M, I0)
            sweeps.append(assign)
            selections.extend(LevelSelection(d, axis, *record) for record in records)
        for iv, ((n1, s1), (n2, s2), (n3, s3)) in zip(stock, zip(*sweeps)):
            cell = max((s1, s2, s3), key=lambda s: s.scale)
            cells.setdefault((d, n1, n2, n3, cell), []).append(iv)

    cell_list = [
        StoppingCell(d, n1, n2, n3, cell, tuple(members))
        for (d, n1, n2, n3, cell), members in cells.items()
    ]

    constants: dict[int, float] = {}
    weights = {axis: lp_norm(ind, 1, weight=root_bump) for axis, ind in indicators.items()}
    per_level: dict[tuple[int, int, int], float] = {}
    for sel in selections:
        key = (sel.axis, sel.d, sel.level)
        per_level[key] = per_level.get(key, 0.0) + sel.interval.length
    for (axis, _d, n), total in per_level.items():
        if n > _LEVEL_CAP or weights[axis] <= 0:
            continue
        c = total / (2.0 ** n * weights[axis])
        constants[axis] = max(constants.get(axis, 0.0), c)

    return StoppingForest(cells=cell_list, selections=selections, exceptional=exc, root=I0,
                          C=_C, M=_M, measure_constants=constants)
