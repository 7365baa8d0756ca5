"""Seeded trial generators.

All randomness flows through the counter-based Philox4x64 generator keyed by
``(seed, stream)``; identical (kind, seed, params) always reproduce the same
trial, across processes and platforms.  The stream word is derived from the
input's role in its trial, if any, the kind and the canonicalized parameters.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import InfeasibleMeasureError
from ..grid import GridFunction, SampleGrid, low_pass_profile
from ..norms import MeasurableSet

__all__ = ["rng_for", "generate_trial"]


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_of(kind: str, params: dict, role: str | None = None) -> int:
    canon = kind + "|" + "|".join(f"{k}={params[k]!r}" for k in sorted(params))
    return zlib.crc32((canon if role is None else f"{role}|{canon}").encode())


def generate_trial(kind: str, seed: int, params: dict, role: str | None = None):
    """Deterministic random grid functions and sets.

    ``role`` names the input in its trial (``"g"``, ``"F"``, ``"f3"``, ...)
    and gives it a stream of its own; no role keeps the kind-and-params one.

    Kinds:
      band_limited: real samples of a random spectrum supported in
          |m| <= params["band"]; params: grid, band, vector_shape (optional)
      step: piecewise-constant on the dyadic partition at params["depth"]
      bump_train: params["count"] smooth bumps at random centers/widths
      dyadic_union: indicator with measure exactly params["measure"]
    """
    grid: SampleGrid = params["grid"]
    rng = rng_for(seed, _stream_of(kind, {k: v for k, v in params.items() if k != "grid"}, role))
    if kind == "band_limited":
        return _band_limited(grid, rng, params)
    if kind == "step":
        return _step(grid, rng, params)
    if kind == "bump_train":
        return _bump_train(grid, rng, params)
    if kind == "dyadic_union":
        return _dyadic_union(grid, rng, params)
    raise ValueError(f"unknown trial kind {kind!r}")


def _band_limited(grid, rng, params) -> GridFunction:
    band = int(params["band"])
    vshape = tuple(params.get("vector_shape", ()))
    if band >= grid.sample_count // 2:
        raise ValueError("band exceeds Nyquist")
    spec = np.zeros(grid.spatial_shape + vshape, dtype=complex)
    mask = np.abs(grid.frequencies()) <= band
    if grid.dimension == 2:
        mask = mask[:, None] & mask[None, :]
    idx = np.nonzero(mask)  # row-major: draw k goes to the k-th frequency in the band
    count = (len(idx[0]),) + vshape
    spec[idx] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    samples = np.fft.ifftn(spec, axes=tuple(range(grid.dimension))).real.astype(complex)
    samples *= grid.sample_count ** (grid.dimension / 2.0)  # O(1) sample size
    return GridFunction(grid, samples)


def _step(grid, rng, params) -> GridFunction:
    depth = int(params["depth"])
    kappa = grid.log2_period()
    cells = 2 ** (depth + kappa)
    if cells > grid.sample_count:
        raise ValueError("step depth finer than the grid")
    vals = rng.uniform(-1.0, 1.0, cells)
    samples = np.repeat(vals, grid.sample_count // cells)
    return GridFunction(grid, samples.astype(complex))


def _bump_train(grid, rng, params) -> GridFunction:
    count = int(params["count"])
    x = grid.points()
    period = grid.period_length
    out = np.zeros(grid.sample_count)
    for _ in range(count):
        center = rng.uniform(0, period)
        width = period * 2.0 ** (-rng.integers(2, 6))
        amp = rng.uniform(0.2, 1.0)
        delta = np.remainder(x - center + period / 2, period) - period / 2
        out += amp * low_pass_profile(delta / width)
    return GridFunction(grid, out.astype(complex))


def _dyadic_union(grid, rng, params) -> MeasurableSet:
    measure = float(params["measure"])
    cells = measure / grid.spacing
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 0:
        raise InfeasibleMeasureError(
            f"measure {measure} is not a multiple of the cell size {grid.spacing}"
        )
    cells = round(cells)
    within = params.get("within")
    if within is None:
        pool = np.arange(grid.sample_count)
    else:
        from ..dyadic import interval_indices

        pool = interval_indices(grid, within)
    if cells > len(pool):
        raise InfeasibleMeasureError("measure exceeds the available window")
    idx = rng.choice(pool, size=cells, replace=False)
    mask = np.zeros(grid.sample_count, dtype=bool)
    mask[idx] = True
    return MeasurableSet.from_mask(grid, mask)
