"""Paraproducts: discretized, localized, telescoping, shifted, finite-decay.

The discretized paraproduct attached to an interval family and bounded
coefficients is

    Pi(f, g) = sum_I c_I |I|^(-1/2) <f, phi1_I> <g, phi2_I> phi3_I,

with one wave-packet flavor per slot.  Evaluation is grouped per scale, so
the whole sum costs a few FFTs per scale irrespective of the family size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..dyadic import DyadicInterval, WavePacketFamily, min_packet_scale
from ..errors import TruncationError
from ..grid import (
    GridFunction,
    SampleGrid,
    littlewood_paley,
    low_pass_profile,
    max_scale,
    require_band_limited,
    scale_range,
)
from ..norms import MeasurableSet

__all__ = [
    "ParaproductSpec",
    "LocalizationSpec",
    "discretized_paraproduct",
    "trilinear_form",
    "localized_paraproduct",
    "telescoping_decomposition",
    "classical_paraproduct",
    "shifted_paraproduct",
    "AlphaParaproductResult",
    "alpha_paraproduct",
    "alpha_symbol_coefficients",
    "default_alpha_n_max",
    "tensor_paraproduct",
]

_DEFAULT_SLOTS = ("non-lacunary", "lacunary", "lacunary")


@dataclass
class ParaproductSpec:
    """Interval family, per-interval coefficients, and slot flavors."""

    grid: SampleGrid
    family: list[DyadicInterval]
    coefficients: np.ndarray
    slot_flavors: tuple[str, str, str] = _DEFAULT_SLOTS
    coefficient_bound: float = field(init=False)

    def __post_init__(self):
        if self.grid.dimension != 1:
            raise ValueError("discretized paraproducts live on 1d grids")
        self.family = list(self.family)
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (len(self.family),):
            raise ValueError("one coefficient per interval required")
        if len(self.slot_flavors) != 3:
            raise ValueError("exactly three slot flavors")
        for fl in self.slot_flavors:
            if fl not in ("lacunary", "non-lacunary"):
                raise ValueError(f"unknown slot flavor {fl!r}")
        self.coefficient_bound = float(
            np.max(np.abs(self.coefficients))) if len(self.family) else 0.0

    @classmethod
    def constant(
        cls,
        grid: SampleGrid,
        family: list[DyadicInterval],
        value: complex = 1.0,
        slot_flavors: tuple[str, str, str] = _DEFAULT_SLOTS,
    ) -> "ParaproductSpec":
        return cls(grid, family, np.full(len(family), value, dtype=complex), slot_flavors)

    @cached_property
    def _slot_families(self) -> tuple[WavePacketFamily, ...]:
        """The packet family of each slot, built once per spec so that every
        application shares their index arrays."""
        return tuple(
            WavePacketFamily(self.grid, self.family, flavor)
            for flavor in self.slot_flavors
        )

    def restricted(self, I0: DyadicInterval) -> "ParaproductSpec":
        keep = [i for i, iv in enumerate(self.family) if I0.contains(iv)]
        return ParaproductSpec(
            self.grid,
            [self.family[i] for i in keep],
            self.coefficients[keep],
            self.slot_flavors,
        )


@dataclass
class LocalizationSpec:
    """Root interval and the three cutoff sets of a localized paraproduct."""

    I0: DyadicInterval
    F: MeasurableSet
    G: MeasurableSet
    Etilde: MeasurableSet

    def __post_init__(self):
        grids = {self.F.grid, self.G.grid, self.Etilde.grid}
        if len(grids) != 1:
            raise ValueError("cutoff sets must share one grid")


def _slot_weights(spec: ParaproductSpec, f: GridFunction, g: GridFunction):
    """Per-interval weights c_I |I|^(-1/2) <f, phi1> <g, phi2>."""
    fam1, fam2, _ = spec._slot_families
    a = fam1.coefficients(f)
    b = fam2.coefficients(g)
    lengths = np.array([iv.length for iv in spec.family])
    return spec.coefficients * a * b / np.sqrt(lengths)


def discretized_paraproduct(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction
) -> GridFunction:
    """sum_I c_I |I|^(-1/2) <f, phi1_I> <g, phi2_I> phi3_I."""
    if not spec.family:
        return GridFunction(spec.grid, np.zeros(spec.grid.sample_count, dtype=complex))
    weights = _slot_weights(spec, f, g)
    return spec._slot_families[2].synthesize(weights)


def trilinear_form(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction, h: GridFunction
) -> complex:
    """sum_I c_I |I|^(-1/2) <f, phi1> <g, phi2> <phi3, h>.

    The third pairing is anti-linear in h, so the form equals the hermitian
    pairing <Pi(f, g), h> whenever slot 3 produces the output packets.
    """
    if not spec.family:
        return 0.0 + 0.0j
    weights = _slot_weights(spec, f, g)
    c3 = np.conj(spec._slot_families[2].coefficients(h))
    return complex(np.sum(weights * c3))


def localized_paraproduct(
    spec: ParaproductSpec,
    loc: LocalizationSpec,
    f: GridFunction,
    g: GridFunction,
) -> GridFunction:
    """Pi restricted to the family inside I0, applied to the cut-off inputs,
    then multiplied by the indicator of the third set."""
    restricted = spec.restricted(loc.I0)
    fF = GridFunction(f.grid, f.samples * loc.F.mask)
    gG = GridFunction(g.grid, g.samples * loc.G.mask)
    out = discretized_paraproduct(restricted, fF, gG)
    return GridFunction(out.grid, out.samples * loc.Etilde.mask)


# ---------------------------------------------------------------------------
# Telescoping product decomposition
# ---------------------------------------------------------------------------

def telescoping_decomposition(
    f: GridFunction, g: GridFunction, dims: int = 1
) -> list[GridFunction]:
    """Exact frequency decomposition of the pointwise product.

    1d: returns [T1, T2, T3, R] with
        T1 = sum_k Q_k f P_k g,  T2 = sum_k P_k f Q_k g,
        T3 = sum_k Q_k f Q_k g,  R = P_min f P_min g,
    summing over the full scale budget; T1 + T2 + T3 + R = f g to round-off
    for inputs band-limited to |m| <= N/4.

    2d: returns the nine double-sum terms (x-type major, y-type minor) plus
    one lumped remainder carrying every coarsest-scale cross term.
    """
    grid = f.grid
    limit = grid.sample_count // 4
    require_band_limited(f, limit)
    require_band_limited(g, limit)
    if dims == 1:
        return _telescope_1d(f, g)
    if dims == 2:
        return _telescope_2d(f, g)
    raise ValueError("dims must be 1 or 2")


def _telescope_1d(f: GridFunction, g: GridFunction) -> list[GridFunction]:
    grid = f.grid
    ks = scale_range(grid)
    t = [np.zeros_like(f.samples) for _ in range(3)]
    for k in ks:
        pf = littlewood_paley(f, k, "P").samples
        qf = littlewood_paley(f, k, "Q").samples
        pg = littlewood_paley(g, k, "P").samples
        qg = littlewood_paley(g, k, "Q").samples
        t[0] += qf * pg
        t[1] += pf * qg
        t[2] += qf * qg
    k0 = ks.start
    r = littlewood_paley(f, k0, "P").samples * littlewood_paley(g, k0, "P").samples
    return [GridFunction(grid, a) for a in (*t, r)]


_PAIRINGS = (("Q", "P"), ("P", "Q"), ("Q", "Q"))


def _telescope_2d(f: GridFunction, g: GridFunction) -> list[GridFunction]:
    grid = f.grid
    ks = list(scale_range(grid))
    k0 = ks[0]

    def proj(h, k, fl, axis):
        return littlewood_paley(h, k, fl, axis=axis)

    # cache x-projections of f and g for every (k, flavor)
    fx = {(k, fl): proj(f, k, fl, 0) for k in ks for fl in "PQ"}
    gx = {(k, fl): proj(g, k, fl, 0) for k in ks for fl in "PQ"}

    terms = []
    for ax, bx in _PAIRINGS:
        for ay, by in _PAIRINGS:
            acc = np.zeros_like(f.samples)
            for k in ks:
                fxa = fx[(k, ax)]
                gxb = gx[(k, bx)]
                for l in ks:
                    acc += (
                        proj(fxa, l, ay, 1).samples * proj(gxb, l, by, 1).samples
                    )
            terms.append(GridFunction(grid, acc))

    # remainder: x-telescoping against the y-coarse block, y-telescoping
    # against the x-coarse block, and the doubly coarse block
    rem = np.zeros_like(f.samples)
    f_ycoarse = proj(f, k0, "P", 1)
    g_ycoarse = proj(g, k0, "P", 1)
    for ax, bx in _PAIRINGS:
        for k in ks:
            rem += (
                proj(f_ycoarse, k, ax, 0).samples * proj(g_ycoarse, k, bx, 0).samples
            )
    f_xcoarse = proj(f, k0, "P", 0)
    g_xcoarse = proj(g, k0, "P", 0)
    for ay, by in _PAIRINGS:
        for l in ks:
            rem += (
                proj(f_xcoarse, l, ay, 1).samples * proj(g_xcoarse, l, by, 1).samples
            )
    rem += (
        proj(f_ycoarse, k0, "P", 0).samples * proj(g_ycoarse, k0, "P", 0).samples
    )
    terms.append(GridFunction(grid, rem))
    return terms


def classical_paraproduct(
    f: GridFunction,
    g: GridFunction,
    which: str = "qpq",
    axis: int = 0,
    scales: range | None = None,
) -> GridFunction:
    """Convolution-form paraproduct with an outer projection.

    ``which`` spells the three projections (f-slot, g-slot, outer):
    "qpq" is sum_k Q_k(Q_k f P_k g), "pqq" is sum_k Q_k(P_k f Q_k g), and
    "qqp" is sum_k P_k(Q_k f Q_k g).  Scales default to the budget minus the
    top scale so the inner products stay below Nyquist.
    """
    if which not in ("qpq", "pqq", "qqp"):
        raise ValueError("which must be 'qpq', 'pqq', or 'qqp'")
    grid = f.grid
    if scales is None:
        full = scale_range(grid)
        scales = range(full.start, full.stop - 1)
    out = np.zeros_like(f.samples)
    slot_f, slot_g, outer = which[0].upper(), which[1].upper(), which[2].upper()
    for k in scales:
        u = littlewood_paley(f, k, slot_f, axis=axis)
        v = littlewood_paley(g, k, slot_g, axis=axis)
        prod = GridFunction(grid, u.samples * v.samples)
        out += littlewood_paley(prod, k, outer, axis=axis).samples
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# Shifted paraproduct
# ---------------------------------------------------------------------------

def shifted_paraproduct(
    n: int,
    f: GridFunction,
    g: GridFunction,
    scales: range | None = None,
) -> GridFunction:
    """sum_I |I|^(-1) <f, psi(I_n)> <g, psi(I_n)> phi_I over the budget."""
    grid = f.grid
    if scales is None:
        scales = range(min_packet_scale(grid), max_scale(grid) + 1)
    fam = WavePacketFamily(grid, [], "lacunary")
    a = fam.scale_coefficients(f, scales, shift_n=n)
    b = fam.scale_coefficients(g, scales, shift_n=n)
    weights = {j: a[j] * b[j] / 2.0 ** (-j) for j in a}
    return WavePacketFamily(grid, [], "non-lacunary").scale_synthesize(weights)


# ---------------------------------------------------------------------------
# Finite-decay (fractional-derivative) paraproduct
# ---------------------------------------------------------------------------

# Quadrature nodes of the symbol on its window [-4, 4).
_QUAD_POINTS = 1 << 17


def alpha_symbol_coefficients(
    alpha: float, n_limit: int, scale: int | None = None
) -> np.ndarray:
    """Fourier coefficients c_n, |n| <= n_limit, of the normalized symbol.

    The symbol is rho(u) = |u|^alpha * lowpass(u) expanded periodically on
    the window u in [-4, 4), wide enough to cover the spectrum of any
    single-scale product.  With ``scale`` given, the symbol is evaluated in
    rescaled form |2^k u|^alpha / 2^(k alpha) (identical up to round-off:
    the coefficients are scale-invariant by construction).

    Returns the array [c_-n_limit, ..., c_0, ..., c_n_limit].
    """
    nq = _QUAD_POINTS
    u = -4.0 + 8.0 * np.arange(nq) / nq
    if scale is None:
        vals = np.abs(u) ** alpha * low_pass_profile(u)
    else:
        xi = u * 2.0 ** scale
        vals = (np.abs(xi) ** alpha / 2.0 ** (scale * alpha)) * low_pass_profile(u)
    coefs = np.fft.fft(vals) / nq
    ns = np.arange(-n_limit, n_limit + 1)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)  # phase from the window offset
    return sign * coefs[ns % nq]


def default_alpha_n_max(alpha: float) -> int:
    """Smallest power-of-two n_max whose tail is below 1e-3 of the head,
    capped at a quarter of the quadrature nodes (2**15).

    For small alpha the slow (1+|n|)^-(1+alpha) decay cannot reach that
    relative tail within the cap; the cap is returned then and the honest
    tail is reported by :func:`alpha_paraproduct`.
    """
    limit = _QUAD_POINTS // 4
    table = np.abs(alpha_symbol_coefficients(alpha, limit))
    head = table.sum()
    center = len(table) // 2
    n = 1
    while n < limit:
        tail = table[: center - n].sum() + table[center + n + 1:].sum()
        if tail < 1e-3 * head:
            return n
        n *= 2
    return limit


@dataclass
class AlphaParaproductResult:
    output: GridFunction
    coefficients: np.ndarray  # c_n for n in [-n_max, n_max]
    n_max: int
    tail: float
    head: float
    scales: range


def alpha_paraproduct(
    alpha: float,
    f: GridFunction,
    g: GridFunction,
    n_max: int | None = None,
    tol: float | None = None,
) -> AlphaParaproductResult:
    """Derivative-absorbed finite-decay paraproduct, as a truncated series.

    Computes sum_k 2^(k alpha) (Q_k f Q_k g) * m_k where the multiplier
    m_k(xi) = |xi|^alpha 2^(-k alpha) lowpass(xi / 2^k) is replaced by its
    truncated Fourier series in the modes exp(2 pi i n xi / 2^(k+3)); this
    equals the alpha-derivative of the low-pass telescoping term up to the
    reported truncation tail.  Requires a unit-period grid.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    grid = f.grid
    if grid.period_length != 1.0:
        raise ValueError("the finite-decay paraproduct assumes a unit period")
    if n_max is None:
        n_max = default_alpha_n_max(alpha)
    if n_max >= _QUAD_POINTS // 2:
        raise ValueError("n_max must be below the quadrature resolution")

    full_limit = _QUAD_POINTS // 4
    table = np.abs(alpha_symbol_coefficients(alpha, full_limit))
    center = full_limit
    head = float(table.sum())
    tail = float(table[: center - n_max].sum() + table[center + n_max + 1:].sum())
    # estimate for the part beyond the computed table from the decay law
    decay_const = float(table[-1]) * (1.0 + full_limit) ** (1.0 + alpha)
    tail += 2.0 * decay_const * full_limit ** (-alpha) / alpha
    if tol is not None and tail > tol:
        raise TruncationError(
            f"truncation tail {tail:.3e} exceeds requested tolerance {tol:.3e} "
            f"at n_max={n_max}",
            tail=tail,
            n_max=n_max,
        )

    coefs = alpha_symbol_coefficients(alpha, n_max)

    # The truncated series evaluated at xi = m / 2**k is a band-limited
    # filtering of the sampled symbol; grid frequencies land exactly on
    # quadrature nodes, so one filtered table serves every scale.
    nq = _QUAD_POINTS
    v = 8.0 * np.arange(nq) / nq  # v = u + 4 on [0, 8)
    rho = np.abs(v - 4.0) ** alpha * low_pass_profile(v - 4.0)
    spec_rho = np.fft.fft(rho)
    freqs = np.fft.fftfreq(nq, d=1.0 / nq)
    spec_rho[np.abs(freqs) > n_max] = 0.0
    filtered = np.fft.ifft(spec_rho).real

    full = scale_range(grid)
    scales = range(max(full.start, 0), full.stop - 1)
    m = grid.frequencies().astype(int)
    out_spec = np.zeros(grid.sample_count, dtype=complex)
    for k in scales:
        step = nq >> (k + 3)
        if step == 0:
            raise ValueError("quadrature grid too coarse for this scale")
        qf = littlewood_paley(f, k, "Q")
        qg = littlewood_paley(g, k, "Q")
        u_spec = np.fft.fft(qf.samples * qg.samples)
        window = np.abs(m) <= 2 ** (k + 2)
        series = filtered[(nq // 2 + m * step) % nq]
        out_spec += 2.0 ** (k * alpha) * u_spec * series * window
    out = GridFunction(grid, np.fft.ifft(out_spec))
    return AlphaParaproductResult(out, coefs, n_max, tail, head, scales)


# ---------------------------------------------------------------------------
# Bi-parameter tensor paraproduct
# ---------------------------------------------------------------------------

def tensor_paraproduct(f: GridFunction, g: GridFunction) -> GridFunction:
    """sum_k Q_k^(y-out) [ Pi_x(P_k^y f, Q_k^y g) ] on a 2d grid.

    Pi_x is the convolution paraproduct sum_j Q_j(Q_j . P_j .) acting on the
    first axis, batched over the second.
    """
    if f.grid.dimension != 2:
        raise ValueError("tensor paraproduct needs 2d inputs")
    grid = f.grid
    full = scale_range(grid)
    ks = range(full.start, full.stop - 1)
    out = np.zeros_like(f.samples)
    for k in ks:
        u = littlewood_paley(f, k, "P", axis=1)
        v = littlewood_paley(g, k, "Q", axis=1)
        w = classical_paraproduct(u, v, which="qpq", axis=0, scales=ks)
        out += littlewood_paley(w, k, "Q", axis=1).samples
    return GridFunction(grid, out)
