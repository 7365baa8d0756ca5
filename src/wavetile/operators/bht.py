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

from ..dyadic import Tritile, tile_scale_coefficients, tile_scale_synthesize
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
    fs, gs = f.samples, g.samples
    out = np.zeros(n, dtype=complex)
    for j in range(1, n // 4 + 1):
        out += (np.roll(fs, j) * np.roll(gs, -j) - np.roll(fs, -j) * np.roll(gs, j)) / j
    return GridFunction(grid, out)


def bht_spectral(f: GridFunction, g: GridFunction) -> GridFunction:
    """The bilinear multiplier -i pi sgn(xi - eta) applied on the torus: the
    reference :func:`bht_kernel` is checked against, sharing none of its code."""
    grid = f.grid
    if grid.dimension != 1:
        raise ValueError("the spectral reference works on 1d grids")
    n = grid.sample_count
    m = grid.frequencies()
    F = np.fft.fft(f.samples)
    G = np.fft.fft(g.samples)
    x_phase = np.arange(n)
    active = np.flatnonzero(np.abs(F) > 1e-14 * max(np.abs(F).max(), 1e-300))
    out = np.zeros(n, dtype=complex)
    for i in active:
        sgn = np.sign(m[i] - m)
        h = np.fft.ifft(G * sgn)
        out += F[i] * np.exp(2j * np.pi * m[i] * x_phase / n) * h
    out *= -1j * np.pi / n
    return GridFunction(grid, out)


@dataclass
class BHTModelSpec:
    """Tile collection of a rank-one model on one grid."""

    grid: SampleGrid
    tiles: list[Tritile]


def bht_model(spec: BHTModelSpec, f: GridFunction, g: GridFunction) -> GridFunction:
    """Rank-one model sum, grouped by (scale, frequency index) layers, and
    componentwise over matching trailing vector axes of f and g."""
    grid = spec.grid
    if not spec.tiles:
        return GridFunction(grid, np.zeros(f.samples.shape, dtype=complex))
    layers: dict[tuple[int, int], list[int]] = {}
    for tile in spec.tiles:
        layers.setdefault((tile.spatial.scale, tile.freq_index), []).append(
            tile.spatial.position
        )
    coef_f = tile_scale_coefficients(grid, f, layers, 1)
    coef_g = tile_scale_coefficients(grid, g, layers, 2)
    weights: dict[tuple[int, int], np.ndarray] = {}
    for (j, l), positions in layers.items():
        a, b = coef_f[(j, l)], coef_g[(j, l)]
        p = np.array(positions) % len(a)
        w = np.zeros(a.shape, dtype=complex)
        # unbuffered, in tile order: a repeated tile adds its term again
        np.add.at(w, p, a[p] * b[p] / np.sqrt(2.0 ** (-j)))
        weights[(j, l)] = w
    return tile_scale_synthesize(grid, weights, 3)
