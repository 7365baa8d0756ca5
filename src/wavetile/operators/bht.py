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

__all__ = ["BhtKernelResult", "bht_kernel", "BHTModelSpec", "bht_model"]


@dataclass
class BhtKernelResult:
    output: GridFunction
    spectral: GridFunction
    discrepancy: float  # ||quadrature - spectral||_2 / ||spectral||_2


def _check_padding(f: GridFunction, rel_tol: float = 1e-12):
    n = f.grid.sample_count
    window = slice(3 * n // 8, 5 * n // 8)
    vals = np.abs(f.samples)
    peak = vals.max()
    if peak == 0:
        return
    outside = np.concatenate([vals[: window.start], vals[window.stop:]])
    if outside.max() > rel_tol * peak:
        raise AliasingError(
            "input support touches the pad: keep signals inside the middle "
            "quarter of the window"
        )


def bht_kernel(f: GridFunction, g: GridFunction) -> BhtKernelResult:
    """Quadrature and spectral evaluations of the bilinear Hilbert transform."""
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
    quad = GridFunction(grid, out)

    spectral = _bht_spectral(f, g)
    denom = spectral.norm2()
    disc = (quad - spectral).norm2() / denom if denom > 0 else 0.0
    return BhtKernelResult(quad, spectral, float(disc))


def _bht_spectral(f: GridFunction, g: GridFunction) -> GridFunction:
    grid = f.grid
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
    """Rank-one model sum, grouped by (scale, frequency index) layers."""
    grid = spec.grid
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
        length = 2.0 ** (-j)
        w = np.zeros(len(a), dtype=complex)
        for pos in positions:
            p = pos % len(w)
            w[p] += a[p] * b[p] / np.sqrt(length)
        weights[(j, l)] = w
    return tile_scale_synthesize(grid, weights, 3)
