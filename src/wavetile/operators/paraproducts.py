"""Model sums (discretized, localized, BHT model), the telescoping, shifted
and tensor paraproducts, and the Fourier coefficients of the finite-decay
symbol.

A model sum attached to a family of items P and bounded coefficients is

    T(f, g) = sum_P c_P |I_P|^(-1/2) <f, phi1_P> <g, phi2_P> phi3_P.

Over dyadic intervals it is the discretized paraproduct Pi, with phi1 a
non-lacunary packet and phi2, phi3 lacunary ones; over tritiles it is the
BHT model BHT_P, with phi_s the packet of the tile's s-th frequency block
and I_P its spatial interval.  Each packet sweep takes one short transform
for all of its layers, so the whole sum costs a few FFTs per call
irrespective of the family size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from ..dyadic import (_TILE_SLOTS, DyadicInterval, Tritile, WavePacketFamily, _column,
                      _spatial_intervals, packet_scales)
from ..errors import AliasingError, ShapeError
from ..grid import (
    GridFunction,
    SampleGrid,
    _band_blocks,
    _projection_values,
    _require_same_grid,
    _require_same_vector_axes,
    band_limit,
    low_pass_profile,
    scale_range,
    scales_reaching,
)
from ..norms import MeasurableSet

__all__ = [
    "ParaproductSpec",
    "LocalizationSpec",
    "discretized_paraproduct",
    "trilinear_form",
    "localized_paraproduct",
    "bht_model",
    "telescoping_decomposition",
    "shifted_paraproduct",
    "alpha_symbol_coefficients",
    "tensor_paraproduct",
]

# Packet flavor of each slot over intervals: phi1 non-lacunary, phi2 and
# phi3 lacunary.  Over tritiles slot s is the tile slot s.
_INTERVAL_SLOTS = ("non-lacunary", "lacunary", "lacunary")


@dataclass
class ParaproductSpec:
    """A model sum's items, dyadic intervals (Pi) or tritiles (BHT_P), and
    one coefficient per item."""

    grid: SampleGrid
    family: list[DyadicInterval | Tritile]
    coefficients: np.ndarray

    def __post_init__(self):
        if self.grid.dimension != 1:
            raise ValueError("model sums live on 1d grids")
        self.family = list(self.family)
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (len(self.family),):
            raise ValueError("one coefficient per item required")
        tiles, self._spatial = _spatial_intervals(self.family)
        self._routes = _TILE_SLOTS if tiles else _INTERVAL_SLOTS

    @classmethod
    def constant(cls, grid: SampleGrid, family: list) -> "ParaproductSpec":
        """Coefficient 1 on every item; over tritiles, the BHT model."""
        return cls(grid, family, np.ones(len(family), dtype=complex))

    def restricted(self, I0: DyadicInterval) -> "ParaproductSpec":
        """The items whose spatial interval lies in I0, in order."""
        keep = [i for i, iv in enumerate(self._spatial) if I0.contains(iv)]
        return ParaproductSpec(self.grid, [self.family[i] for i in keep], self.coefficients[keep])


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


def _slot_weights(
    spec: ParaproductSpec, fam: WavePacketFamily, f: GridFunction, g: GridFunction
):
    """Per-item weights c_P |I_P|^(-1/2) <f, phi1_P> <g, phi2_P> over the
    spec's family ``fam``, item axis first and the inputs' vector axes
    after it."""
    _require_same_vector_axes(f, g)
    a = fam.coefficients(f, spec._routes[0])
    b = fam.coefficients(g, spec._routes[1])
    sqrt_lengths = np.sqrt(np.array([iv.length for iv in spec._spatial]))
    return _column(spec.coefficients, a.ndim) * a * b / _column(sqrt_lengths, a.ndim)


def discretized_paraproduct(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction
) -> GridFunction:
    """sum_P c_P |I_P|^(-1/2) <f, phi1_P> <g, phi2_P> phi3_P, componentwise
    over matching trailing vector axes of f and g."""
    fam = WavePacketFamily(spec.grid, spec.family)
    return fam.synthesize(_slot_weights(spec, fam, f, g), spec._routes[2])


def trilinear_form(
    spec: ParaproductSpec, f: GridFunction, g: GridFunction, h: GridFunction
) -> complex:
    """sum_P c_P |I_P|^(-1/2) <f, phi1_P> <g, phi2_P> <phi3_P, h>.

    The third pairing is anti-linear in h, so the form equals the hermitian
    pairing <T(f, g), h> whenever slot 3 produces the output packets.
    """
    _require_same_vector_axes(f, h)
    fam = WavePacketFamily(spec.grid, spec.family)
    weights = _slot_weights(spec, fam, f, g)
    return complex(np.sum(weights * np.conj(fam.coefficients(h, spec._routes[2]))))


def localized_paraproduct(
    spec: ParaproductSpec,
    loc: LocalizationSpec,
    f: GridFunction,
    g: GridFunction,
) -> GridFunction:
    """The model sum over the items inside I0, applied to the cut-off
    inputs, then multiplied by the indicator of the third set; vector axes
    of f and g are carried componentwise."""
    _require_same_grid(spec, loc.F)
    restricted = spec.restricted(loc.I0)
    ndim = f.samples.ndim
    fF = GridFunction(f.grid, f.samples * _column(loc.F.mask, ndim))
    gG = GridFunction(g.grid, g.samples * _column(loc.G.mask, ndim))
    out = discretized_paraproduct(restricted, fF, gG)
    return GridFunction(out.grid, out.samples * _column(loc.Etilde.mask, ndim))


def bht_model(spec: ParaproductSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """BHT_P(f, g) over a tile spec, ``ParaproductSpec.constant(grid, tiles)``:
    the model sum under the name of its perfbench layer metric."""
    return discretized_paraproduct(spec, f, g)


# ---------------------------------------------------------------------------
# Telescoping product decomposition (and the band helpers of Pi x Pi)
# ---------------------------------------------------------------------------

def _band_profile(grid: SampleGrid, scales, shape, flavors, ndim: int) -> np.ndarray:
    """Outer product of the per-axis projection profiles on a band of
    ``shape``, shaped to broadcast over the trailing axes of an
    ``ndim``-array."""
    m = reduce(np.multiply.outer, [
        _projection_values(size, grid.period_length, k, fl)
        for size, k, fl in zip(shape, scales, flavors)
    ])
    return m.reshape(m.shape + (1,) * (ndim - m.ndim))


def _gather(spec: np.ndarray, blocks, profile: np.ndarray) -> np.ndarray:
    """The band of ``spec`` (leading axes) times the band's ``profile``."""
    lead = len(blocks[0][0])
    out = np.empty(profile.shape[:lead] + spec.shape[lead:], dtype=complex)
    for full, part in blocks:
        np.multiply(spec[full], profile[part], out=out[part])
    return out


def _scatter_add(spec: np.ndarray, blocks, band: np.ndarray):
    """Add the band transform of a product of band projections into the
    full spectrum ``spec``, in place; ``band`` is rescaled in place.

    The band's inverse transforms divide by its size rather than by n, so
    along each axis the product's band transform is n/size times its full
    spectrum.
    """
    lead = len(blocks[0][0])
    band *= np.prod(band.shape[:lead]) / np.prod(spec.shape[:lead])
    for full, part in blocks:
        spec[full] += band[part]


def _inverse(spec: np.ndarray) -> np.ndarray:
    """Inverse fft over every axis, in place."""
    return np.fft.ifftn(spec, out=spec)


def telescoping_decomposition(f: GridFunction, g: GridFunction) -> list[GridFunction]:
    """Exact frequency decomposition of the pointwise product.

    Along each axis the product telescopes into three pairings summed over
    the scale budget, Q_k . P_k, P_k . Q_k and Q_k . Q_k, plus the coarse
    block P_k0 . P_k0 at the first scale.  On a d-dimensional grid the terms
    are the tensor products of one piece per axis.  Returns the 3**d pairing
    terms (first axis major, pairings in the order above) and then one
    remainder that sums every term with a coarse factor; in 1d that is
    [T1, T2, T3, R] with R = P_k0 f P_k0 g.  The parts add up to f g to
    round-off for inputs band-limited to |m| <= N/4.

    Both inputs are transformed once, and the sum stops at the last scale
    whose annulus reaches their band (``grid.scales_reaching``).  The
    projections and products at a tuple of per-axis scales run on that
    tuple's band (``grid._band``), and each product's spectrum is added into
    its term's; each term then costs one inverse transform.
    """
    if f.vector_shape or g.vector_shape:
        raise ShapeError("the telescoping decomposition takes scalar functions")
    grid = f.grid
    dim = grid.dimension
    f_hat = np.fft.fftn(f.samples)
    g_hat = np.fft.fftn(g.samples)
    band = max(band_limit(grid, f_hat), band_limit(grid, g_hat))
    if band > grid.sample_count // 4:
        raise AliasingError(
            f"spectrum reaches |m|={band}, beyond the admissible {grid.sample_count // 4}"
        )
    ks = scales_reaching(grid, scale_range(grid), band)
    # flavors of f and g in each piece along one axis; "PP" is the coarse
    # block, present at the first scale only
    pieces = ("QP", "PQ", "QQ", "PP")
    spectra = [np.zeros_like(f_hat) for _ in range(3 ** dim + 1)]
    for scales in product(ks, repeat=dim):
        shape, blocks = _band_blocks(grid, scales)
        proj_f, proj_g = {}, {}
        for flavors in product("PQ", repeat=dim):
            m = _band_profile(grid, scales, shape, flavors, dim)
            proj_f[flavors] = _inverse(_gather(f_hat, blocks, m))
            proj_g[flavors] = _inverse(_gather(g_hat, blocks, m))
        choices = [range(4) if k == ks.start else range(3) for k in scales]
        members = {}
        for combo in product(*choices):
            term = 3 ** dim if 3 in combo else int(np.ravel_multi_index(combo, (3,) * dim))
            members.setdefault(term, []).append(combo)
        for term, combos in members.items():
            acc = reduce(np.add, (proj_f[tuple(pieces[i][0] for i in c)]
                                  * proj_g[tuple(pieces[i][1] for i in c)] for c in combos))
            _scatter_add(spectra[term], blocks, np.fft.fftn(acc, out=acc))
    return [GridFunction(grid, _inverse(s)) for s in spectra]


# ---------------------------------------------------------------------------
# Shifted paraproduct
# ---------------------------------------------------------------------------

def shifted_paraproduct(n: int, f: GridFunction, g: GridFunction) -> GridFunction:
    """sum_I |I|^(-1) <f, psi(I_n)> <g, psi(I_n)> phi_I over the packet
    budget, componentwise over matching trailing vector axes of f and g."""
    _require_same_grid(f, g)
    _require_same_vector_axes(f, g)
    scales = packet_scales(f.grid)
    fam = WavePacketFamily(f.grid, [])
    a = fam.scale_coefficients(f, scales, "lacunary", shift_n=n)
    b = fam.scale_coefficients(g, scales, "lacunary", shift_n=n)
    weights = {j: a[j] * b[j] / 2.0 ** (-j) for j in a}
    return fam.scale_synthesize(weights, "non-lacunary")


# ---------------------------------------------------------------------------
# Finite-decay symbol coefficients
# ---------------------------------------------------------------------------

# Quadrature nodes of the symbol on its window [-4, 4).
_QUAD_POINTS = 1 << 17
# Largest |n| of the tabulated coefficients.
_N_LIMIT = 256


def alpha_symbol_coefficients(alpha: float) -> np.ndarray:
    """Fourier coefficients c_n, |n| <= 256, of the normalized symbol.

    The symbol is rho(u) = |u|^alpha * lowpass(u) expanded periodically on
    the window u in [-4, 4), wide enough to cover the spectrum of any
    single-scale product.

    Returns the array [c_-256, ..., c_0, ..., c_256].
    """
    nq = _QUAD_POINTS
    u = -4.0 + 8.0 * np.arange(nq) / nq
    vals = np.abs(u) ** alpha * low_pass_profile(u)
    coefs = np.fft.fft(vals) / nq
    ns = np.arange(-_N_LIMIT, _N_LIMIT + 1)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)  # phase from the window offset
    return sign * coefs[ns % nq]


# ---------------------------------------------------------------------------
# Bi-parameter tensor paraproduct
# ---------------------------------------------------------------------------

def tensor_paraproduct(f: GridFunction, g: GridFunction) -> GridFunction:
    """sum_k Q_k^(y-out) [ Pi_x(P_k^y f, Q_k^y g) ] on a 2d grid,
    componentwise over trailing vector axes.

    Pi_x is the convolution paraproduct sum_j Q_j(Q_j . P_j .) acting on the
    first axis.  Both inputs are transformed once, and each sum stops at the
    last scale whose annulus reaches their band (``grid.scales_reaching``).
    The product of each scale pair (j, k) runs on that pair's band
    (``grid._band``) and its spectrum is added into the output's, which
    costs one inverse transform.
    """
    if f.grid.dimension != 2:
        raise ValueError("tensor paraproduct needs 2d inputs")
    grid = f.grid
    axes = (0, 1)
    f_hat = np.fft.fft2(f.samples, axes=axes)
    g_hat = np.fft.fft2(g.samples, axes=axes)
    full = scale_range(grid)
    band = max(band_limit(grid, f_hat), band_limit(grid, g_hat))
    ks = scales_reaching(grid, range(full.start, full.stop - 1), band)
    out = np.zeros_like(f_hat)
    for scales in product(ks, ks):
        shape, blocks = _band_blocks(grid, scales)
        u = _gather(f_hat, blocks, _band_profile(grid, scales, shape, "QP", f_hat.ndim))
        v = _gather(g_hat, blocks, _band_profile(grid, scales, shape, "PQ", g_hat.ndim))
        u = np.fft.ifft2(u, axes=axes, out=u)
        u *= np.fft.ifft2(v, axes=axes, out=v)
        u = np.fft.fft2(u, axes=axes, out=u)
        u *= _band_profile(grid, scales, shape, "QQ", u.ndim)
        _scatter_add(out, blocks, u)
    return GridFunction(grid, np.fft.ifft2(out, axes=axes, out=out))
