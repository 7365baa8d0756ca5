"""Two-parameter fractional Leibniz rule: both sides, for ratio reporting.

The left side is the mixed norm of D1^alpha D2^beta (f g), computed
spectrally.  The right side is the sum of four products

    ||D1^a D2^b f||_{p_x, p_y} * ||D1^a' D2^b' g||_{q_x, q_y}

splitting the derivatives as (both, none), (none, both), (x on f / y on g),
and (y on f / x on g).  Every term carries its own Hoelder pair; the target
exponents must satisfy s1 > 1/(1+alpha) and s2 > max(1/(1+alpha),
1/(1+beta)), else the assignment is rejected naming the violated constraint.

The derivative fields are built on their input's band.  A real field takes
one rfft along the second axis; the columns up to that axis's band go on
to the first axis's fft, and the rows beyond the first axis's band are
dropped, both bands read with ``band_limit``'s floor (1e-12 of the peak).
Each field D1^a D2^b h multiplies that block by |m1|**a |m2|**b, then takes
one ifft over the kept columns and one irfft back to the n x n grid.  A
complex input is the sum of its real and imaginary parts, each taken
through the same route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExponentConstraintError, ShapeError
from ..grid import GridFunction, SampleGrid, _active_bins
from ..norms import Exponent, ExponentTuple, MixedNormSpec, _iterated_norm, recip

__all__ = ["LeibnizExponents", "leibniz_sides"]


@dataclass(frozen=True)
class LeibnizExponents:
    """Target pair (s1, s2) and one (px, py, qx, qy) tuple per product term."""

    s1: Exponent
    s2: Exponent
    pairs: tuple[tuple[Exponent, Exponent, Exponent, Exponent], ...]

    def __post_init__(self):
        if len(self.pairs) != 4:
            raise ValueError("need exactly four Hoelder pairs")
        for px, py, qx, qy in self.pairs:
            ExponentTuple(px, qx, self.s1)
            ExponentTuple(py, qy, self.s2)
            for e in (px, py, qx, qy):
                if recip(e) >= 1:
                    raise ValueError("factor exponents must exceed 1")

    @classmethod
    def symmetric(cls, s1: Exponent = 2, s2: Exponent = 2) -> "LeibnizExponents":
        """The symmetric split: every factor norm at double the target."""
        px = 1 / (recip(s1) / 2) if recip(s1) > 0 else s1
        py = 1 / (recip(s2) / 2) if recip(s2) > 0 else s2
        pair = (px, py, px, py)
        return cls(s1, s2, (pair, pair, pair, pair))


def _check_constraints(alpha: float, beta: float, exps: LeibnizExponents):
    # s > lo reads 1/s < 1/lo, which holds at s = inf as well
    lo1 = recip(1 + alpha)
    lo2 = max(lo1, recip(1 + beta))
    if not recip(exps.s1) < 1 / lo1:
        raise ExponentConstraintError(
            f"s1={exps.s1} violates s1 > 1/(1+alpha) = {lo1}",
            constraint="s1 > 1/(1+alpha)",
        )
    if not recip(exps.s2) < 1 / lo2:
        raise ExponentConstraintError(
            f"s2={exps.s2} violates s2 > max(1/(1+alpha), 1/(1+beta)) = {lo2}",
            constraint="s2 > max(1/(1+alpha), 1/(1+beta))",
        )


def _band_spectrum(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Spectrum of a real n x n field on its band, given |m| in fft order:
    one rfft along the second axis, the first axis's fft on the columns up
    to that axis's band, and the rows beyond the first axis's band set to
    zero."""
    half = np.fft.rfft(h, axis=1)
    cols = np.flatnonzero(_active_bins(half, (0, 1))[1])  # rfft bin index = |m2|
    spec = np.fft.fft(half[:, : cols.max(initial=0) + 1], axis=0)
    spec[m > m[_active_bins(spec, (0, 1))[0]].max(initial=0)] = 0
    return spec


class _Fields:
    """The moduli of the derivative fields D1^a D2^b h of one n x n input,
    built from the band of each of its real parts."""

    def __init__(self, grid: SampleGrid, h: np.ndarray):
        self.h = h
        self.m = np.abs(grid.frequencies())
        parts = (h.real, h.imag) if h.imag.any() else (h.real,)
        self.spectra = [_band_spectrum(part, self.m) for part in parts]

    def __call__(self, a: float, b: float) -> np.ndarray:
        if a == b == 0:
            return np.abs(self.h)
        m = self.m
        # fractional_derivative's multiplier |m|**a, whose 0**0 = 1 keeps
        # the identity at a = 0
        re, *im = (np.fft.irfft(np.fft.ifft(spec * m[:, None] ** a * m[: spec.shape[1]] ** b,
                                            axis=0), len(m), axis=1)
                   for spec in self.spectra)
        return np.hypot(re, im[0]) if im else np.abs(re, out=re)


def leibniz_sides(
    alpha: float,
    beta: float,
    exps: LeibnizExponents,
    f: GridFunction,
    g: GridFunction,
) -> tuple[float, tuple[float, float, float, float]]:
    """Evaluate lhs and the four rhs products of the two-parameter rule.

    f, g and f g each take one forward transform on their band (one rfft,
    then the first axis's fft on the band's columns); each derivative field
    is one short ifft over those columns and one irfft back to n x n, and
    the mixed norms are taken of the fields' moduli."""
    if f.grid.dimension != 2:
        raise ValueError("the two-parameter rule needs 2d inputs")
    if f.vector_shape or g.vector_shape:
        raise ShapeError("the two-parameter rule takes scalar inputs")
    _check_constraints(alpha, beta, exps)

    grid = f.grid
    lhs = _iterated_norm(_Fields(grid, f.samples * g.samples)(alpha, beta), grid,
                         MixedNormSpec((exps.s1, exps.s2)))

    f_fields, g_fields = _Fields(grid, f.samples), _Fields(grid, g.samples)
    # (f's, g's) derivative exponents per term: (both, none), (none, both),
    # (x on f, y on g), (y on f, x on g)
    splits = (((alpha, beta), (0, 0)), ((0, 0), (alpha, beta)),
              ((alpha, 0), (0, beta)), ((0, beta), (alpha, 0)))
    terms = []
    for (af, ag), (px, py, qx, qy) in zip(splits, exps.pairs):
        nf = _iterated_norm(f_fields(*af), grid, MixedNormSpec((px, py)))
        ng = _iterated_norm(g_fields(*ag), grid, MixedNormSpec((qx, qy)))
        terms.append(nf * ng)
    return lhs, tuple(terms)
