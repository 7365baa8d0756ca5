"""Layer micro-benchmark: packet sweeps and synthesis, the model sums,
chi-weighted averages, one stopping sweep, size and energy from one sweep,
one weak-norm dualization sweep, Littlewood-Paley products, the Leibniz
sides, the BHT oracle pair and the range grid.

    PYTHONPATH=src python3 benchmarks/layers.py [--repeats 9] [--json FILE]

Times the two packet layers the campaign targets are built from, on a
unit-period grid at n = 512, 1024 and 4096:

* ``sweep``: the coefficients of one input at every position of every
  layer, ``WavePacketFamily.scale_coefficients`` over all packet scales
  (lacunary and non-lacunary) and ``tile_scale_coefficients`` over
  (scale, frequency index) layers, slot 1;
* ``synth``: the adjoint, ``WavePacketFamily.scale_synthesize`` on the
  same route, and on slot 3 for the tile layers, of weights with those
  shapes.

Each is timed for a scalar input and for K = 16 components, the latter as
one call on an ``(n, 16)`` input (the packet engine takes trailing vector
axes).

The ``model_sum`` rows time the three operators that sum over one packet
family per call (the ``packets`` field names the operator, ``items`` its
family size):

* ``discretized_paraproduct`` on vv-paraproduct's 254-interval family
  (scales 1-7 at n = 1024, coefficient 1) of inputs band-limited to n/8,
  at K = 1 and K = 16;
* ``trilinear_form`` on the full depth-4 tree under [0, 1) on
  trilinear-size-energy's grid (n = 512, period 4), the tree its families
  are drawn from, of band-40 inputs;
* ``bht_model`` at bht-local-l2's three tile tiers (n = 1024, scales 2-4,
  1, 4 and 16 frequency indices) of band-12 inputs.

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
from functools import partial

import numpy as np

from wavetile import dyadic
from wavetile.analysis import size, size_energy, stopping_decompose
from wavetile.bench import ExperimentConfig, generate_trial
from wavetile.bench.targets import _random_stopping_config
from wavetile.dyadic import (
    DyadicInterval,
    WavePacketFamily,
    build_rank_one_tiles,
    grid_dyadic_family,
    min_packet_scale,
    tile_scale_coefficients,
    torus_bump_samples,
)
from wavetile.grid import GridFunction, SampleGrid, low_pass_profile, max_scale
from wavetile.norms import dualize_superlevel_sets
from wavetile.operators import (
    BHTModelSpec,
    LeibnizExponents,
    ParaproductSpec,
    bht_kernel,
    bht_model,
    bht_spectral,
    discretized_paraproduct,
    leibniz_sides,
    range_grid_mismatches,
    telescoping_decomposition,
    tensor_paraproduct,
    trilinear_form,
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
    """(packets, sweep(f), synth(weights)) per case."""
    scales = range(min_packet_scale(grid), max_scale(grid) + 1)
    fam = WavePacketFamily(grid, [])
    for flavor in ("lacunary", "non-lacunary"):
        yield (flavor,
               lambda f, flavor=flavor: fam.scale_coefficients(f, scales, flavor),
               lambda w, flavor=flavor: fam.scale_synthesize(w, flavor))
    layers = _tile_layers(grid)
    yield ("tile",
           lambda f: tile_scale_coefficients(grid, f, layers, 1),
           lambda w: fam.scale_synthesize(w, 3))


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


def _band_limited(grid: SampleGrid, band: int, roles, vector_shape=()):
    """One seed-1 band-limited draw per role."""
    params = {"grid": grid, "band": band, "vector_shape": vector_shape}
    return [generate_trial("band_limited", 1, params, role=role) for role in roles]


def _model_sum_rows(repeats: int) -> list[dict]:
    """The model-sum rows: one call of each operator on its target's family."""
    grid = SampleGrid(1024, 1.0)
    spec = ParaproductSpec.constant(grid, grid_dyadic_family(grid, range(1, 8)))
    cases = [("discretized_paraproduct", components, len(spec.family),
              partial(discretized_paraproduct, spec,
                      *_band_limited(grid, 128, (None, "g"), vshape)))
             for components, vshape in ((1, ()), (K, (K,)))]
    tri_grid = SampleGrid(512, 4.0)
    tree = [DyadicInterval(j, m) for j in range(5) for m in range(2 ** j)]
    cases.append(("trilinear_form", 1, len(tree),
                  partial(trilinear_form, ParaproductSpec.constant(tri_grid, tree),
                          *_band_limited(tri_grid, 40, (None, "g", "h")))))
    f, g = _band_limited(grid, 12, (None, "g"))
    for freqs in (1, 4, 16):
        bht = BHTModelSpec(grid, build_rank_one_tiles(grid, range(2, 5), range(0, freqs)))
        cases.append(("bht_model", 1, len(bht.tiles), partial(bht_model, bht, f, g)))
    rows = []
    for name, components, items, call in cases:
        row = {"layer": "model_sum", "packets": name, "n": call.args[1].grid.sample_count,
               "K": components, "items": items, "repeats": repeats, **_timed(call, repeats)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


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
    return (rows + _model_sum_rows(repeats) + _average_rows(repeats)
            + _dualization_row(repeats) + _spectral_rows(repeats))


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
