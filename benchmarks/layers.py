"""Layer micro-benchmark: packet sweeps and synthesis, chi-weighted
averages, one stopping sweep, size and energy from one sweep, one weak-norm
dualization sweep, Littlewood-Paley products, the Leibniz sides, the BHT
oracle pair and the range grid.

    PYTHONPATH=src python3 benchmarks/layers.py [--repeats 9] [--json FILE]

Times the two packet layers the campaign targets are built from, on a
unit-period grid at n = 512, 1024 and 4096:

* ``sweep``: the coefficients of one input at every position of every
  layer, ``WavePacketFamily.scale_coefficients`` over all packet scales
  (lacunary and non-lacunary) and ``tile_scale_coefficients`` over
  (scale, frequency index) layers, slot 1;
* ``synth``: the adjoint, ``WavePacketFamily.scale_synthesize`` and
  ``tile_scale_synthesize`` (slot 3), of weights with those shapes.

Each is timed for a scalar input and for K = 16 components, the latter as
one call on an ``(n, 16)`` input (the packet engine takes trailing vector
axes).

Four more layers run on the stopping-invariants grid (n = 512, period 4):

* ``torus_bump``: ``torus_bump_samples`` at M = 4 of every interval of the
  full dyadic tree four levels below [0, 1), the bumps size-energy weighs
  by, timed cold: both bump caches are cleared before each call;
* ``chi_average``: ``size(f, family, M=4)`` of a step function over the
  same tree, the supremum of the chi-weighted averages size-energy takes;
* ``stopping_sweep``: ``stopping_decompose`` of one stopping-invariants
  configuration (seed 7, depth 5), exceptional set and level sweeps;
* ``size_energy``: ``size_energy(f, tree, flavor)`` for each packet flavor
  (the ``packets`` field), size and energy from one sweep, over the same
  tree and a band-24 band-limited input (size-energy's third kind).

One times the weak-norm dualization on the weak-dualization grid (n = 512,
period 1):

* ``weak_dualization``: ``dualize_superlevel_sets(f, 1/2, 1, 4)`` of the
  seed-7 campaign's first step function (depth 5), every superlevel set of
  |f| trimmed and dualized in one pass.

Six more time the Littlewood-Paley products, the spectral multipliers, the
BHT oracle pair and the exhaustive range grid:

* ``telescope``: ``telescoping_decomposition`` of two inputs band-limited to
  n/8, in 1d at n = 4096 and in 2d at 256**2 (the telescope targets);
* ``tensor``: ``tensor_paraproduct`` at 128**2 of inputs band-limited to 8
  (tensor-mixed-norm);
* ``leibniz_sides``: both sides of the two-parameter Leibniz rule at
  alpha = beta = 1, symmetric split at (2, 2), of inputs band-limited to 8
  at 256**2 (leibniz-mixed);
* ``bht_kernel`` and ``bht_spectral``: the quadrature and the multiplier
  at n = 2048 on bht-multiplier's modulated bumps (frequencies 5 and 25);
* ``range_grid``: ``range_grid_mismatches(24)``, both range routes over the
  step-1/24 grid (range-consistency).

Every timing is a median (with quartiles) over ``--repeats`` calls after one
warm-up call, so the packet caches are full and only the sweep is timed
(``torus_bump`` alone times the cache misses).
One JSON line per case goes to stdout, and ``--json`` writes them all with
the Python, numpy and CPU figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from wavetile import dyadic
from wavetile.analysis import size, size_energy, stopping_decompose
from wavetile.bench import ExperimentConfig, generate_trial
from wavetile.bench.targets import _random_stopping_config
from wavetile.dyadic import (
    DyadicInterval,
    WavePacketFamily,
    min_packet_scale,
    tile_scale_coefficients,
    tile_scale_synthesize,
    torus_bump_samples,
)
from wavetile.grid import GridFunction, SampleGrid, low_pass_profile, max_scale
from wavetile.norms import dualize_superlevel_sets
from wavetile.operators import (
    LeibnizExponents,
    bht_kernel,
    bht_spectral,
    leibniz_sides,
    range_grid_mismatches,
    telescoping_decomposition,
    tensor_paraproduct,
)

SIZES = (512, 1024, 4096)
K = 16


def _input(grid: SampleGrid, vector_shape: tuple[int, ...], seed: int) -> GridFunction:
    rng = np.random.default_rng(seed)
    shape = (grid.sample_count,) + vector_shape
    return GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _tile_layers(grid: SampleGrid) -> list[tuple[int, int]]:
    """Scales from 3 up to where slot 3 of frequency index 3 stays below
    Nyquist, four frequency indices each."""
    top = int(np.log2(grid.sample_count / 12))
    return [(j, l) for j in range(3, top + 1) for l in range(4)]


def _cases(grid: SampleGrid):
    """(layer, flavor, sweep(f), synth(weights), weights for f) per case."""
    scales = range(min_packet_scale(grid), max_scale(grid) + 1)
    for flavor in ("lacunary", "non-lacunary"):
        fam = WavePacketFamily(grid, [], flavor)
        yield (flavor,
               lambda f, fam=fam: fam.scale_coefficients(f, scales),
               fam.scale_synthesize)
    layers = _tile_layers(grid)
    yield ("tile",
           lambda f: tile_scale_coefficients(grid, f, layers, 1),
           lambda w: tile_scale_synthesize(grid, w, 3))


def _warm():
    """No set-up: the caches stay full between calls."""


def _timed(call, repeats: int, setup=_warm) -> dict:
    """Quartiles of ``call``'s time; ``setup`` runs untimed before each call."""
    setup()
    call()  # warm-up: fills the packet and bump caches
    samples = []
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def _clear_bump_caches():
    dyadic._torus_bump_cached.cache_clear()
    dyadic._bump_offsets.cache_clear()


def _average_rows(repeats: int) -> list[dict]:
    """The torus-bump, chi-average, stopping-sweep and size-energy rows on
    the stopping grid."""
    grid = SampleGrid(512, 4.0)
    f = generate_trial("step", 5, {"grid": grid, "depth": 4})
    tree = [DyadicInterval(j, m) for j in range(5) for m in range(2 ** j)]
    seed = ExperimentConfig(seed=7).seeds("stopping-invariants", 1)[0]
    family, E1, E2, E3, root = _random_stopping_config(seed, grid, 5)
    cases = (
        ("torus_bump", tree, lambda: [torus_bump_samples(grid, iv, 4) for iv in tree],
         _clear_bump_caches),
        ("chi_average", tree, lambda: size(f, tree, M=4), _warm),
        ("stopping_sweep", family,
         lambda: stopping_decompose(family, E1, E2, E3, root), _warm),
    )
    rows = []
    for layer, intervals, call, setup in cases:
        row = {"layer": layer, "n": grid.sample_count, "K": 1, "intervals": len(intervals),
               "repeats": repeats, **_timed(call, repeats, setup)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    g = generate_trial("band_limited", 5, {"grid": grid, "band": 24})
    for flavor in ("non-lacunary", "lacunary"):
        row = {"layer": "size_energy", "packets": flavor, "n": grid.sample_count, "K": 1,
               "intervals": len(tree), "repeats": repeats,
               **_timed(lambda: size_energy(g, tree, flavor), repeats)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def _dualization_row(repeats: int) -> list[dict]:
    """The weak-norm dualization row: one weak-dualization trial's sweep."""
    grid = SampleGrid(512, 1.0)
    seed = ExperimentConfig(seed=7).seeds("weak-dualization", 1)[0]
    f = generate_trial("step", seed, {"grid": grid, "depth": 5})
    shares, _ = dualize_superlevel_sets(f, 0.5, 1.0, 4.0)
    row = {"layer": "weak_dualization", "n": grid.sample_count, "K": 1,
           "levels": len(shares), "repeats": repeats,
           **_timed(lambda: dualize_superlevel_sets(f, 0.5, 1.0, 4.0), repeats)}
    print(json.dumps(row), flush=True)
    return [row]


def _leibniz(f: GridFunction, g: GridFunction):
    return leibniz_sides(1.0, 1.0, LeibnizExponents.symmetric(2, 2), f, g)


def _bht_rows(repeats: int) -> list[dict]:
    """The BHT oracle rows, on bht-multiplier's inputs."""
    grid = SampleGrid(2048, 1.0)
    x = grid.points()
    window = low_pass_profile((x - 0.5) / 0.12)
    f, g = (GridFunction(grid, window * np.exp(2j * np.pi * a * x)) for a in (5, 25))
    rows = []
    for layer, op in (("bht_kernel", bht_kernel), ("bht_spectral", bht_spectral)):
        row = {"layer": layer, "n": grid.sample_count, "K": 1, "repeats": repeats,
               **_timed(lambda: op(f, g), repeats)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def _spectral_rows(repeats: int) -> list[dict]:
    """The Littlewood-Paley product, multiplier, BHT and range-grid rows."""
    rows = []
    for layer, op, dims, n, band in (
        ("telescope", telescoping_decomposition, 1, 4096, 512),
        ("telescope", telescoping_decomposition, 2, 256, 32),
        ("tensor", tensor_paraproduct, 2, 128, 8),
        ("leibniz_sides", _leibniz, 2, 256, 8),
    ):
        grid = SampleGrid(n, 1.0, dimension=dims)
        f, g = (generate_trial("band_limited", 1, {"grid": grid, "band": band}, role=role)
                for role in (None, "g"))
        row = {"layer": layer, "n": n, "K": 1, "dimension": dims, "band": band,
               "repeats": repeats, **_timed(lambda: op(f, g), repeats)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    rows += _bht_rows(repeats)
    points, _ = range_grid_mismatches(24)
    row = {"layer": "range_grid", "step": 24, "points": points, "repeats": repeats,
           **_timed(lambda: range_grid_mismatches(24), repeats)}
    print(json.dumps(row), flush=True)
    return rows + [row]


def measure(repeats: int) -> list[dict]:
    rows = []
    for n in SIZES:
        grid = SampleGrid(n, 1.0)
        for name, sweep, synth in _cases(grid):
            for components in (1, K):
                f = _input(grid, () if components == 1 else (K,), 1)
                weights = sweep(f)
                for op, call in (("sweep", lambda: sweep(f)), ("synth", lambda: synth(weights))):
                    row = {"layer": f"packet_{op}", "packets": name, "n": n, "K": components,
                           "repeats": repeats, **_timed(call, repeats)}
                    print(json.dumps(row), flush=True)
                    rows.append(row)
    return rows + _average_rows(repeats) + _dualization_row(repeats) + _spectral_rows(repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9, help="timed calls per case (>= 2)")
    parser.add_argument("--json", help="also write every row and the machine figures here")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    rows = measure(args.repeats)
    if args.json:
        record = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
