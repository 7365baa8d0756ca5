"""Bilinear Hilbert transform: principal-value quadrature and model sums.

The quadrature oracle computes

    BHT(f, g)(x) = p.v. integral f(x - t) g(x + t) dt / t

on a zero-padded line window (the inputs must live in the middle quarter of
the period so no pair (x - t, x + t) wraps), pairing +-t nodes so the odd
kernel cancels exactly.  The spectral reference applies the bilinear
multiplier -i pi sgn(xi - eta) directly; sgn(0) = 0.  The model operator is
the rank-one tile sum

    BHT_P(f, g) = sum_P |I_P|^(-1/2) <f, phi1_P> <g, phi2_P> phi3_P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dyadic import Tritile, WavePacketFamily, _column
from ..errors import AliasingError
from ..grid import GridFunction, SampleGrid

__all__ = ["bht_kernel", "bht_spectral", "BHTModelSpec", "bht_model"]


def _check_padding(f: GridFunction):
    n = f.grid.sample_count
    window = slice(3 * n // 8, 5 * n // 8)
    vals = np.abs(f.samples)
    peak = vals.max()
    if peak == 0:
        return
    outside = np.concatenate([vals[: window.start], vals[window.stop:]])
    if outside.max() > 1e-12 * peak:
        raise AliasingError(
            "input support touches the pad: keep signals inside the middle "
            "quarter of the window"
        )


def bht_kernel(f: GridFunction, g: GridFunction) -> GridFunction:
    """Principal-value quadrature of the bilinear Hilbert transform."""
    if f.grid.dimension != 1:
        raise ValueError("the kernel oracle works on 1d line windows")
    grid = f.grid
    _check_padding(f)
    _check_padding(g)
    n = grid.sample_count
    J = n // 4
    # h[x -+ j] is the slice [J -+ j, J -+ j + n) of h wrapped by J on each side
    fw, gw = (np.concatenate([h.samples[-J:], h.samples, h.samples[:J]]) for h in (f, g))
    out = np.zeros(n, dtype=complex)
    for j in range(1, J + 1):
        lo, hi = slice(J - j, J - j + n), slice(J + j, J + j + n)
        out += (fw[lo] * gw[hi] - fw[hi] * gw[lo]) / j
    return GridFunction(grid, out)


# Products F_i G_j formed per chunk of the signed convolution: 2**15 complex
# values (512 KiB) stay in cache; at n = 2048 twice that ran ~2x slower.
_CHUNK = 1 << 15


def bht_spectral(f: GridFunction, g: GridFunction) -> GridFunction:
    """The bilinear multiplier -i pi sgn(xi - eta) applied on the torus: the
    reference :func:`bht_kernel` is checked against, sharing none of its code.

    The output spectrum is the signed convolution
    H_k = sum_{i + j = k mod n} F_i G_j sgn(m_i - m_j), over the bins i where
    F is above 1e-14 of its peak, summed a chunk of such bins at a time.
    """
    grid = f.grid
    if grid.dimension != 1:
        raise ValueError("the spectral reference works on 1d grids")
    n = grid.sample_count
    m = grid.frequencies()
    F = np.fft.fft(f.samples)
    G = np.fft.fft(g.samples)
    active = np.flatnonzero(np.abs(F) > 1e-14 * max(np.abs(F).max(), 1e-300))
    # row n - i of these windows lists, for each output bin k, the G bin
    # j = k - i mod n and its frequency
    G_rows, m_rows = (sliding_window_view(np.concatenate([a, a]), n) for a in (G, m))
    H = np.zeros(n, dtype=complex)
    for bins in np.array_split(active, max(1, -(-len(active) * n // _CHUNK))):
        rows = n - bins
        terms = F[bins, None] * G_rows[rows]
        terms *= np.sign(m[bins, None] - m_rows[rows])
        # a sum, not a BLAS product: BLAS threads contend with other processes
        H += terms.sum(axis=0)
    return GridFunction(grid, np.fft.ifft(H) * (-1j * np.pi / n))


@dataclass
class BHTModelSpec:
    """Tile collection of a rank-one model on one grid."""

    grid: SampleGrid
    tiles: list[Tritile]


def bht_model(spec: BHTModelSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Rank-one model sum over the tiles' packet family: slot-1 and slot-2
    coefficients, then one slot-3 synthesis, componentwise over matching
    trailing vector axes of f and g."""
    fam = WavePacketFamily(spec.grid, spec.tiles)
    a = fam.coefficients(f, 1)
    b = fam.coefficients(g, 2)
    sqrt_lengths = np.sqrt(np.array([t.spatial.length for t in spec.tiles]))
    return fam.synthesize(a * b / _column(sqrt_lengths, a.ndim), 3)
