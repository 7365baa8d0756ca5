"""Registry of inequality targets driven by the campaign runner.

Each target measures both sides of one inequality over seeded trials and
applies its acceptance policy: a ratio cap (the registry entry's ``cap``,
``None`` for the targets whose verdict reads no cap) and, where the
statement is uniformity over a structural parameter, a no-growth check
across that parameter.  Caps encode measured headroom, not proven constants.

A runner is ``runner(cfg, seeds, cap) -> (rows, aggregates, passed)``: it
takes the campaign's ``ExperimentConfig``, its trial seeds and the target's
cap (the entry's ``cap``, ``None`` when the verdict reads none) and returns
its ``TrialRow`` list, its aggregates dict and its verdict.  ``run_campaign``
builds the ``TargetResult`` from these and the registry entry's name and
statement.

The entry's ``trials`` is the target's trial count, lowered to the config's
``trials`` if set, and ``run_campaign`` alone turns it into seeds:
``cfg.seeds(name, cfg.trial_count(entry.trials))``, labelled by the registry
name.  The three targets that read no seed declare ``trials=0`` and get
none.  Within a trial each input is drawn under its role: none for the
first, then ``g``, ``h``; the sets ``F``, ``G``, ``E`` (E~) and
``E1``..``E3``; vector components ``f{k}``, ``g{k}``.  A swept value
(vv-paraproduct's K, bht-local-l2's tile tier, shifted-growth's n,
localized-operator's eps) is a row param: a trial draws its inputs once and
gives one row per value, so each per-value statistic reads the rows whose
params carry that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import analysis, dyadic, norms, operators
from ..errors import MajorSubsetError
from ..grid import GridFunction, SampleGrid, max_scale
from ..norms import INF, MixedNormSpec, lp_norm, mixed_norm, weak_lp_norm
from .generate import generate_trial, rng_for

if TYPE_CHECKING:
    from .campaign import ExperimentConfig

__all__ = ["TrialRow", "TargetResult", "InequalityTarget", "REGISTRY", "target_names"]


@dataclass
class TrialRow:
    trial: int
    seed: int
    lhs: float
    rhs: float
    ratio: float
    params: dict = field(default_factory=dict)


@dataclass
class TargetResult:
    name: str
    statement: str
    rows: list[TrialRow]
    aggregates: dict
    passed: bool
    error: str | None = None
    seconds: float = 0.0


@dataclass(frozen=True)
class InequalityTarget:
    name: str
    statement: str
    runner: Callable
    cap: float | None
    trials: int


def _trial_rows(seeds: list[int], trial: Callable) -> list[TrialRow]:
    """Rows of the trials with these seeds: ``trial(t, seed)`` returns its
    ``(lhs, rhs, params)`` triples; a degenerate one, with rhs 0, is dropped."""
    return [
        TrialRow(t, seed, lhs, rhs, lhs / rhs, params)
        for t, seed in enumerate(seeds)
        for lhs, rhs, params in trial(t, seed)
        if rhs != 0
    ]


def _nonempty(rows: list[TrialRow]) -> list[TrialRow]:
    if not rows:
        raise ValueError("no rows to judge: every trial was dropped as degenerate")
    return rows


def _ratios_where(rows: list[TrialRow], **params) -> list[float]:
    """Ratios of the rows whose params include ``params``, one swept value's
    group; a group with no rows raises."""
    return [r.ratio for r in _nonempty([r for r in rows if params.items() <= r.params.items()])]


def _capped(rows: list[TrialRow], cap: float, gate: bool = True, **extra):
    """Ratio-cap verdict: pass iff every row's ratio is at most ``cap`` and
    ``gate`` (the target's further check) holds; a nan ratio fails and is
    the reported maximum, and no rows at all raise."""
    max_ratio = float(np.max([r.ratio for r in _nonempty(rows)]))
    return rows, {"max_ratio": max_ratio, "cap": cap, **extra}, max_ratio <= cap and gate


def _bounded(rows: list[TrialRow], aggregates: dict, gate: bool = True):
    """Row-bound verdict: pass iff every row's ratio (its lhs over its own
    bound) is at most 1 and ``gate`` holds; a nan ratio fails, and no rows
    at all raise."""
    return rows, aggregates, all(r.ratio <= 1.0 for r in _nonempty(rows)) and gate


def _subfamily(rng, root: dyadic.DyadicInterval, depth: int):
    """Random subset of the dyadic tree below root: the root, and each
    interval below it with probability 0.7."""
    fam = [root]
    level = [root]
    for _ in range(depth):
        nxt = []
        for iv in level:
            nxt.extend(iv.children())
        level = nxt
        fam.extend(iv for iv in level if rng.random() < 0.7)
    return fam


# ---------------------------------------------------------------------------
# Individual targets
# ---------------------------------------------------------------------------

def _run_telescope(cfg: ExperimentConfig, seeds: list[int], cap: None, *, dims: int, n: int,
                   tol: float):
    grid = SampleGrid(n, 1.0, dimension=dims)

    def trial(t, seed):
        f = generate_trial("band_limited", seed, {"grid": grid, "band": n // 8})
        g = generate_trial("band_limited", seed, {"grid": grid, "band": n // 8}, role="g")
        parts = operators.telescoping_decomposition(f, g)
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        product = GridFunction(grid, f.samples * g.samples)
        return [((total - product).norm2() / product.norm2(), tol, {"n": n})]

    rows = _trial_rows(seeds, trial)
    return _bounded(rows, {"max_residual": max(r.lhs for r in rows), "tolerance": tol})


_C_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0)


def _run_weak_dualization(cfg, seeds, cap):
    grid = SampleGrid(512, 1.0)
    r, p, C = 0.5, 1.0, 4.0
    fails = 0

    def trial(t, seed):
        nonlocal fails
        f = generate_trial("step", seed, {"grid": grid, "depth": 5})
        # every superlevel set's (shares, ratios) at each ladder constant; C is on it
        sweeps = {c: norms.dualize_superlevel_sets(f, r, p, c) for c in _C_LADDER}
        shares, ratios = sweeps[C]
        major = [i for i, share in enumerate(shares) if share >= 0.5]
        fails += len(shares) - len(major)
        best = max((ratios[i] for i in major), default=0.0)
        # the largest over major sets of the first ladder constant that keeps it major
        trial_c = max((next(c for c in _C_LADDER if sweeps[c][0][i] >= 0.5) for i in major),
                      default=_C_LADDER[0])
        return [(best, weak_lp_norm(f, p), {"r": r, "p": p, "smallest_major_C": trial_c})]

    rows = _trial_rows(seeds, trial)
    ratios = [row.ratio for row in _nonempty(rows)]
    passed = (
        fails == 0
        and all(0.25 * (1 - 1e-9) <= x <= 4.0 * (1 + 1e-9) for x in ratios)
    )
    agg = {"min_ratio": min(ratios), "max_ratio": max(ratios),
           "bracket": [0.25, 4.0], "majorness_failures": fails,
           "smallest_uniform_major_C": max(row.params["smallest_major_C"] for row in rows)}
    return rows, agg, passed


def _random_stopping_config(seed: int, grid: SampleGrid, depth: int):
    root = dyadic.DyadicInterval(0, 0)
    rng = rng_for(seed, 77)
    family = _subfamily(rng, root, depth)
    cell = grid.spacing
    quarter = grid.sample_count // int(grid.period_length) // 4

    def random_set(role):
        count = int(rng.integers(max(1, quarter // 8), quarter))
        return generate_trial(
            "dyadic_union", seed,
            {"grid": grid, "measure": count * cell, "within": root}, role=role,
        )

    E1, E2, E3 = (random_set(role) for role in ("E1", "E2", "E3"))
    return family, E1, E2, E3, root


def _run_stopping(cfg, seeds, cap):
    grid = SampleGrid(512, 4.0)
    rows = []
    checks_ok = True
    for t, seed in enumerate(seeds):
        depth = 3 + (t % 3)  # depths 3..5
        family, E1, E2, E3, root = _random_stopping_config(seed, grid, depth)
        try:
            forest = analysis.stopping_decompose(family, E1, E2, E3, root)
        except MajorSubsetError as exc:
            rows.append(TrialRow(t, seed, 1.0, 0.0, math.inf,
                                 {"error": f"majorness {exc.achieved_ratio:.3f}"}))
            continue
        checks = _stopping_checks(forest, family, E1, E2)
        checks_ok = checks_ok and all(checks.values())
        cmax = max(forest.measure_constants.values(), default=0.0)
        rows.append(TrialRow(t, seed, cmax, cap, cmax / cap,
                             {"depth": depth, "cells": len(forest.cells),
                              **checks}))
    agg = {"max_measure_constant": max((r.lhs for r in rows), default=0.0),
           "cap": cap}
    return _bounded(rows, agg, checks_ok)


def _stopping_checks(forest, family, E1, E2) -> dict:
    """Partition, disjointness, bracket, size-bound, and d-decay checks."""
    M = forest.M
    partition_ok = sorted(forest.all_members()) == sorted(family)
    ivs = [sel.interval for sel in forest.selections]
    levels = np.array([(sel.d, sel.axis, sel.level) for sel in forest.selections])
    levels = levels.reshape(-1, 3)  # (0, 3) when there is no selection
    # two selections at one (d, axis, level) overlap iff one contains the other
    overlaps = analysis._containment(ivs, ivs) & (levels[:, None] == levels[None]).all(axis=2)
    np.fill_diagonal(overlaps, False)
    disjoint_ok = not overlaps.any()
    indicators = {1: (E1.indicator, M), 2: (E2.indicator, M),
                  3: (forest.exceptional.protected.indicator, 2 * M)}
    tail = 1.0 + 2.0 / (M - 1.0)
    bracket_ok = True
    size_bound_ok = True
    decay_ok = True
    for sel in forest.selections:
        if sel.level > analysis._LEVEL_CAP:
            continue
        ind, expo = indicators[sel.axis]
        avg = analysis.average_single(ind, sel.interval, expo)
        lo = 2.0 ** (-sel.level - 1) * (1 - 1e-9)
        hi = 2.0 ** (-sel.level) * (1 + 1e-9) if sel.level >= 1 else tail * 1.05
        if not (lo <= avg <= hi):
            bracket_ok = False
        if sel.axis == 1:
            st = analysis.size_tilde(E1.indicator, list(sel.members),
                                     I0=sel.interval, M=M).value
            if st > 2.0 ** (-sel.level + 1) * (1 + 1e-9):
                size_bound_ok = False
        if sel.axis == 3 and sel.d >= 1:
            if 2.0 ** (-sel.level) > 4.0 * 2.0 ** (-M * sel.d):
                decay_ok = False
    return {"partition": partition_ok, "disjoint": disjoint_ok,
            "bracket": bracket_ok, "size_bound": size_bound_ok,
            "d_decay": decay_ok}


def _run_size_energy(cfg, seeds, cap):
    grid = SampleGrid(512, 4.0)
    root = dyadic.DyadicInterval(0, 0)
    kinds = (("step", "depth", 4), ("bump_train", "count", 3), ("band_limited", "band", 24))

    def trial(t, seed):
        rng = rng_for(seed, 5)
        family = _subfamily(rng, root, 4)
        kind, key, value = kinds[t % 3]
        f = generate_trial(kind, seed, {"grid": grid, key: value})
        sup_avg = analysis.size(f, family, M=4).value
        l1 = lp_norm(f, 1)
        out = []
        for flavor in ("non-lacunary", "lacunary"):
            s, e = analysis.size_energy(f, family, flavor)
            out.append((s.value, sup_avg, {"check": f"size-{flavor}"}))
            out.append((e.value, l1, {"check": f"energy-{flavor}"}))
        return out

    rows = _trial_rows(seeds, trial)
    # far-support decay sweep (period large enough that no torus wrap helps)
    decay_grid = SampleGrid(4096, 64.0)
    ks = [1, 2, 3, 4, 5]
    decay_vals = []
    family = [dyadic.DyadicInterval(j, m) for j in range(0, 4) for m in range(2 ** j)]
    for k in ks:
        x = decay_grid.points()
        center = 0.5 + (2.0 ** k - 1)
        supp = np.abs(x - center) < 0.5
        f = GridFunction(decay_grid, supp.astype(complex))
        decay_vals.append(analysis.energy(f, family).value)
    monotone = all(
        decay_vals[i + 1] <= decay_vals[i] * (1 + 1e-9) or decay_vals[i + 1] < 1e-12
        for i in range(len(ks) - 1)
    )
    return _capped(rows, cap, monotone, far_support_energy=decay_vals,
                   monotone_decay=monotone)


_VV_KS = (1, 2, 4, 8, 16)


def _vv_sides(grid, base, seed) -> list[tuple]:
    """One vv-paraproduct trial: f and g with 16 components band-limited to
    n/8 and one random subfamily of ``base``, drawn once; each K applies the
    paraproduct to the first K components and gives (||out||_{L^s l^r},
    ||f||_{L^p l^r1} ||g||_{L^q l^r2}, {"K": K})."""
    params = {"grid": grid, "band": grid.sample_count // 8, "vector_shape": (_VV_KS[-1],)}
    fs, gs = (generate_trial("band_limited", seed, params, role=role) for role in (None, "g"))
    rng = rng_for(seed, 13)
    keep = rng.random(len(base)) < 0.8
    family = [iv for iv, k in zip(base, keep) if k]
    coeffs = rng.uniform(0.3, 1.0, len(family))
    out = operators.discretized_paraproduct(operators.ParaproductSpec(grid, family, coeffs),
                                            fs, gs)
    spec_f = spec_g = MixedNormSpec((4, Fraction(3, 2)))  # (p, r1) = (q, r2)
    spec_out = MixedNormSpec((2, Fraction(3, 4)))  # (s, r)

    def norm(h, spec, K):
        return mixed_norm(GridFunction(grid, h.samples[:, :K]), spec)

    return [(norm(out, spec_out, K), norm(fs, spec_f, K) * norm(gs, spec_g, K), {"K": K})
            for K in _VV_KS]


def _run_vv_paraproduct(cfg, seeds, cap):
    grid = SampleGrid(cfg.grid_size, 1.0)
    base = dyadic.grid_dyadic_family(grid, range(1, min(8, max_scale(grid) + 1)))
    rows = _trial_rows(seeds, lambda t, seed: _vv_sides(grid, base, seed))
    maxima = [float(np.max(_ratios_where(rows, K=K))) for K in _VV_KS]
    slope = float(np.polyfit(np.log(_VV_KS), np.log(maxima), 1)[0])
    # the growth fit needs a stable empirical sup; below 10 trials the slope
    # is reported but not gated on
    slope_gated = len(seeds) >= 10
    return _capped(rows, cap, abs(slope) <= 0.1 or not slope_gated,
                   maxima_by_K=maxima, log_slope=slope, slope_window=0.1,
                   slope_gated=slope_gated)


def _run_alpha_coefficients(cfg, seeds, cap):
    rows = []
    bounds = {}
    for t, alpha in enumerate((0.25, 0.5, 1.0)):
        table = operators.alpha_symbol_coefficients(alpha)
        ns = np.arange(-256, 257)
        weighted = np.abs(table) * (1.0 + np.abs(ns)) ** (1.0 + alpha)
        bound = float(weighted.max())
        bounds[alpha] = bound
        rows.append(TrialRow(t, 0, bound, cap, bound / cap,
                             {"alpha": alpha, "check": "decay-bound"}))
    return _bounded(rows, {"decay_bounds": {str(a): b for a, b in bounds.items()},
                           "cap": cap})


_SHIFTS = (1, 2, 4, 8, 16, 32, 64)


def _shifted_sides(grid: SampleGrid, seed: int) -> list[tuple]:
    """One trial of shifted-growth, one f and g for every shift n and all
    three operators: ||T_n f||_2 over ||f||_2 for the maximal and square
    operators, ||Pi_n(f, g)||_2 over ||f||_4 ||g||_4 for the paraproduct."""
    f = generate_trial("band_limited", seed, {"grid": grid, "band": 64})
    g = generate_trial("band_limited", seed, {"grid": grid, "band": 64}, role="g")
    f2, f4g4 = lp_norm(f, 2), lp_norm(f, 4) * lp_norm(g, 4)
    sides = []
    for n in _SHIFTS:
        sides += [
            (lp_norm(analysis.maximal(f, n), 2), f2, {"op": "maximal", "n": n}),
            (lp_norm(analysis.shifted_square(f, n), 2), f2, {"op": "square", "n": n}),
            (lp_norm(operators.shifted_paraproduct(n, f, g), 2), f4g4,
             {"op": "paraproduct", "n": n}),
        ]
    return sides


def _run_shifted_growth(cfg, seeds, kappa_cap):
    grid = SampleGrid(512, 1.0)
    rows = _trial_rows(seeds, lambda t, seed: _shifted_sides(grid, seed))
    xs = np.log(np.log(1.0 + np.array(_SHIFTS, dtype=float)))
    maxima, medians, fits = {}, {}, {}
    for op in ("maximal", "square", "paraproduct"):
        groups = [_ratios_where(rows, op=op, n=n) for n in _SHIFTS]
        maxima[op] = [float(np.max(group)) for group in groups]
        medians[op] = [float(np.median(group)) for group in groups]
        fits[op] = float(np.polyfit(xs, np.log(maxima[op]), 1)[0])
    agg = {"kappa_fits": fits, "kappa_cap": kappa_cap, "ns": list(_SHIFTS),
           "maxima_by_n": maxima, "medians_by_n": medians}
    return rows, agg, all(kappa <= kappa_cap for kappa in fits.values())


def _run_bht_multiplier(cfg, seeds, cap):
    n = 2048
    grid = SampleGrid(n, 1.0)
    x = grid.points()
    from ..grid import low_pass_profile

    window = low_pass_profile((x - 0.5) / 0.12)
    a, b = 5, 25
    fa = GridFunction(grid, window * np.exp(2j * np.pi * a * x))
    gb = GridFunction(grid, window * np.exp(2j * np.pi * b * x))
    quad = operators.bht_kernel(fa, gb)
    center = n // 2
    idx = slice(center - n // 128, center + n // 128)
    predicted = 1j * np.pi * np.sign(b - a) * np.exp(
        2j * np.pi * (a + b) * x[idx]) * window[idx] ** 2
    rel = float(np.max(np.abs(quad.samples[idx] - predicted)) / np.max(np.abs(predicted)))
    spectral = operators.bht_spectral(fa, gb)
    discrepancy = (quad - spectral).norm2() / spectral.norm2()
    return _bounded([TrialRow(0, 0, rel, 0.03, rel / 0.03, {"check": "modulus-pi"})],
                    {"spectral_discrepancy": discrepancy})


def _run_bht_local_l2(cfg, seeds, cap):
    grid = SampleGrid(1024, 1.0)
    tiers = [1, 4, 16]  # tile count quadruples tier to tier
    tile_sets = [dyadic.build_rank_one_tiles(grid, range(2, 5), range(0, freqs))
                 for freqs in tiers]
    specs = [operators.BHTModelSpec(grid, tiles) for tiles in tile_sets]

    def trial(t, seed):
        f = generate_trial("band_limited", seed, {"grid": grid, "band": 12})
        g = generate_trial("band_limited", seed, {"grid": grid, "band": 12}, role="g")
        denom = lp_norm(f, 2) * lp_norm(g, 2)
        return [(lp_norm(operators.bht_model(spec, f, g), 1), denom, {"tiles": len(spec.tiles)})
                for spec in specs]

    rows = _trial_rows(seeds, trial)
    medians = [float(np.median(_ratios_where(rows, tiles=len(spec.tiles)))) for spec in specs]
    growth_ok = all(
        medians[i + 1] <= medians[i] * 1.25 + 1e-12 for i in range(len(medians) - 1)
    )
    growth_gated = len(seeds) >= 10
    return _capped(rows, cap, growth_ok or not growth_gated,
                   medians_by_tier=medians, tile_tiers=tiers, no_growth=growth_ok,
                   growth_gated=growth_gated)


def _run_range_consistency(cfg, seeds, cap):
    checked, mismatches = operators.range_grid_mismatches(24)

    # third example: 1/q = 4/5 >= 3/4 fails case (ii); p = 10 is the
    # Hoelder-consistent outer exponent for (q, s) = (5/4, 10/9)
    worked = [
        ("p=2 q=2 s=1 r1=2 r2=2 r=1", True, "i"),
        ("p=4 q=2 s=4/3 r1=4/3 r2=4 r=1", True, "ii"),
        ("p=10 q=5/4 s=10/9 r1=4/3 r2=4 r=1", False, "ii"),
    ]
    rows = [TrialRow(0, 0, float(mismatches), 0.0,
                     0.0 if mismatches == 0 else math.inf,
                     {"grid_points": checked})]
    for t, (text, want_member, want_case) in enumerate(worked):
        q = operators.parse_range_query(text)
        res = operators.bht_range_membership(q)
        ok = res.member == want_member and res.case_labels[0] == want_case
        rows.append(TrialRow(t + 1, 0, float(res.member), float(want_member),
                             1.0 if ok else math.inf,
                             {"query": text, "case": res.case_labels[0]}))
    return _bounded(rows, {"grid_points": checked, "mismatches": mismatches})


def _run_leibniz(cfg, seeds, cap):
    n = 256
    grid = SampleGrid(n, 1.0, dimension=2)
    alpha = beta = 1.0
    exps = operators.LeibnizExponents.symmetric(2, 2)

    def trial(t, seed):
        f = generate_trial("band_limited", seed, {"grid": grid, "band": n // 32})
        g = generate_trial("band_limited", seed, {"grid": grid, "band": n // 32}, role="g")
        lhs, terms = operators.leibniz_sides(alpha, beta, exps, f, g)
        return [(lhs, sum(terms), {})]

    return _capped(_trial_rows(seeds, trial), cap)


def _local_sizes(funcs, family, root) -> list[float]:
    """size~ of each function over family+ inside 3*root, at decay M = 4."""
    return [analysis.size_tilde(h, family, I0=root, M=4).value for h in funcs]


def _run_trilinear_size_energy(cfg, seeds, cap):
    grid = SampleGrid(512, 4.0)
    root = dyadic.DyadicInterval(0, 0)

    def trial(t, seed):
        family = _subfamily(rng_for(seed, 3), root, 4)
        spec = operators.ParaproductSpec.constant(grid, family)
        f, g, h = (generate_trial("band_limited", seed, {"grid": grid, "band": 40}, role=role)
                   for role in (None, "g", "h"))
        lam = abs(operators.trilinear_form(spec, f, g, h))
        rhs = 1.0
        for func, flavor in ((f, "non-lacunary"), (g, "lacunary"), (h, "lacunary")):
            s, e = analysis.size_energy(func, family, flavor)
            rhs *= s.value ** (2.0 / 3.0) * e.value ** (1.0 / 3.0)
        return [(lam, rhs, {})]

    return _capped(_trial_rows(seeds, trial), cap, theta=[1 / 3, 1 / 3, 1 / 3])


def _run_localized_trilinear(cfg, seeds, cap):
    grid = SampleGrid(512, 4.0)
    root = dyadic.DyadicInterval(1, 1)  # [1/2, 1)
    bump = GridFunction(grid, dyadic.torus_bump_samples(grid, root, 4).astype(complex))

    def trial(t, seed):
        family = _subfamily(rng_for(seed, 3), root, 3)
        spec = operators.ParaproductSpec.constant(grid, family)
        f, g, h = (generate_trial("bump_train", seed, {"grid": grid, "count": 3}, role=role)
                   for role in (None, "g", "h"))
        lam = abs(operators.trilinear_form(spec, f, g, h))
        rhs = 1.0
        for func, st in zip((f, g, h), _local_sizes((f, g, h), family, root)):
            rhs *= st ** (2.0 / 3.0) * lp_norm(func, 1, weight=bump) ** (1.0 / 3.0)
        return [(lam, rhs, {})]

    return _capped(_trial_rows(seeds, trial), cap)


def _run_local_l1(cfg, seeds, cap):
    grid = SampleGrid(512, 4.0)
    root = dyadic.DyadicInterval(1, 1)

    def trial(t, seed):
        family = _subfamily(rng_for(seed, 3), root, 3)
        spec = operators.ParaproductSpec.constant(grid, family)
        f = generate_trial("bump_train", seed, {"grid": grid, "count": 2})
        g = generate_trial("bump_train", seed, {"grid": grid, "count": 2}, role="g")
        Et = generate_trial("dyadic_union", seed, {"grid": grid, "measure": 0.5}, role="E")
        out = operators.discretized_paraproduct(spec, f, g)
        lhs = lp_norm(GridFunction(grid, out.samples * Et.mask), 1)
        rhs = math.prod(_local_sizes((f, g, Et.indicator), family, root)) * root.length
        return [(lhs, rhs, {})]

    return _capped(_trial_rows(seeds, trial), cap)


def _lr_of_lr(grid, comps, e, weight=None) -> float:
    """||(sum_k |comps[k]|^e)^(1/e)||_(L^e), weighted, over components on axis 0."""
    stack = np.power(np.sum(np.abs(comps) ** float(e), axis=0), 1 / float(e))
    return lp_norm(GridFunction(grid, stack.astype(complex)), e, weight=weight)


_LOCALIZED_EXPONENTS = (1.5, 1.5, 0.75)  # (r1, r2, r)
_EPS_VALUES = (0.01, 0.05, 0.1)  # localized-operator's exponent losses


def _localized_operator_rows(seeds, eps_values, K):
    """Rows of the l^r-valued localized paraproduct on K components, one
    per exponent loss eps of each trial; at K = 1 the l^r sums are absolute
    values, the scalar operator."""
    r1, r2, r = _LOCALIZED_EXPONENTS
    grid = SampleGrid(512, 4.0)
    root = dyadic.DyadicInterval(1, 1)
    bump = GridFunction(grid, dyadic.torus_bump_samples(grid, root, 4).astype(complex))

    def trial(t, seed):
        family = _subfamily(rng_for(seed, 3), root, 3)
        spec = operators.ParaproductSpec.constant(grid, family)
        F, G, Et = (generate_trial("dyadic_union", seed, {"grid": grid, "measure": m}, role=role)
                    for role, m in (("F", 1.0), ("G", 1.0), ("E", 0.5)))
        loc = operators.LocalizationSpec(root, F, G, Et)
        sF, sG, sE = _local_sizes((F.indicator, G.indicator, Et.indicator), family, root)
        comps_f, comps_g = (
            [generate_trial("bump_train", seed, {"grid": grid, "count": 2},
                            role=f"{name}{k}").samples for k in range(K)]
            for name in ("f", "g")
        )
        fs, gs = (GridFunction(grid, np.stack(comps, axis=-1)) for comps in (comps_f, comps_g))
        # components first, as the l^e sums reduce axis 0
        outs = operators.localized_paraproduct(spec, loc, fs, gs).samples.T
        lhs = _lr_of_lr(grid, outs, r)
        norm_f, norm_g = _lr_of_lr(grid, comps_f, r1, bump), _lr_of_lr(grid, comps_g, r2, bump)
        return [(lhs,
                 sF ** max(1.0 - 1.0 / r1 - eps, 0.0)
                 * sG ** max(1.0 - 1.0 / r2 - eps, 0.0)
                 * sE ** max(1.0 / r - eps, 0.0)
                 * norm_f * norm_g,
                 {"eps": eps})
                for eps in eps_values]

    return _trial_rows(seeds, trial)


def _run_localized_operator(cfg, seeds, cap):
    rows = _localized_operator_rows(seeds, _EPS_VALUES, 1)
    return _capped(rows, cap, eps_values=list(_EPS_VALUES))


def _run_vv_localized(cfg, seeds, cap):
    rows = _localized_operator_rows(seeds, (0.05,), 4)
    return _capped(rows, cap, K=4)


def _run_bht_localized(cfg, seeds, cap):
    grid = SampleGrid(512, 1.0)
    root = dyadic.DyadicInterval(1, 1)
    bump = GridFunction(grid, dyadic.torus_bump_samples(grid, root, 4).astype(complex))
    theta = 1.0 / 3.0
    r1 = r2 = 2.0
    r = 1.0
    expo1 = (1 + theta) / 2 - 1 / r1  # exponents of the local sizes
    expo3 = (1 + theta) / 2 - 0.0  # 1/r' = 0 at r = 1
    tiles = dyadic.build_rank_one_tiles(grid, range(3, 6), range(0, 4))
    tiles = [tt for tt in tiles if root.contains(tt.spatial)]
    spec = operators.BHTModelSpec(grid, tiles)
    spatial = [tt.spatial for tt in tiles]

    def trial(t, seed):
        F, G, Et = (generate_trial("dyadic_union", seed, {"grid": grid, "measure": 0.25},
                                   role=role) for role in ("F", "G", "E"))
        f = generate_trial("bump_train", seed, {"grid": grid, "count": 2})
        g = generate_trial("bump_train", seed, {"grid": grid, "count": 2}, role="g")
        fF = GridFunction(grid, f.samples * F.mask)
        gG = GridFunction(grid, g.samples * G.mask)
        out = operators.bht_model(spec, fF, gG)
        lhs = lp_norm(GridFunction(grid, out.samples * Et.mask), r)
        sF, sG, sE = _local_sizes((F.indicator, G.indicator, Et.indicator), spatial, root)
        rhs = (
            sF ** expo1 * sG ** expo1 * sE ** expo3
            * lp_norm(f, r1, weight=bump) * lp_norm(g, r2, weight=bump)
        )
        return [(lhs, rhs, {})]

    return _capped(_trial_rows(seeds, trial), cap, theta=theta)


def _run_tensor_mixed_norm(cfg, seeds, cap):
    n = 128
    grid = SampleGrid(n, 1.0, dimension=2)

    def trial(t, seed):
        f = generate_trial("band_limited", seed, {"grid": grid, "band": n // 16})
        g = generate_trial("band_limited", seed, {"grid": grid, "band": n // 16}, role="g")
        out = operators.tensor_paraproduct(f, g)
        lhs = mixed_norm(out, MixedNormSpec((2, 2)))
        rhs = mixed_norm(f, MixedNormSpec((4, 4))) * mixed_norm(g, MixedNormSpec((4, 4)))
        return [(lhs, rhs, {})]

    return _capped(_trial_rows(seeds, trial), cap,
                   exponents={"p": [4, 4], "q": [4, 4], "s": [2, 2]})


def _run_depth2_vv(cfg, seeds, cap):
    grid = SampleGrid(512, 1.0)
    K1 = K2 = 3
    fam = dyadic.grid_dyadic_family(grid, range(1, 6))
    spec = operators.ParaproductSpec.constant(grid, fam)
    op = partial(operators.discretized_paraproduct, spec)

    def trial(t, seed):
        fs = generate_trial("band_limited", seed,
                            {"grid": grid, "band": 48, "vector_shape": (K1, K2)})
        gs = generate_trial("band_limited", seed,
                            {"grid": grid, "band": 48, "vector_shape": (K1, K2)}, role="g")
        out, (n_out, n_f, n_g) = operators.vector_valued_apply(
            op, fs, gs,
            MixedNormSpec((4, INF, 2)),
            MixedNormSpec((4, 2, INF)),
            MixedNormSpec((2, 2, 2)),
        )
        return [(n_out, n_f * n_g, {"K": [K1, K2]})]

    return _capped(_trial_rows(seeds, trial), cap,
                   inner_tuples={"R1": ["inf", 2], "R2": [2, "inf"], "R": [2, 2]})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, InequalityTarget] = {t.name: t for t in (
    InequalityTarget("telescope-1d",
                     "f*g = sum_k [Q_k f P_k g + P_k f Q_k g + Q_k f Q_k g] + coarse block",
                     partial(_run_telescope, dims=1, n=4096, tol=1e-10), None, trials=3),
    InequalityTarget("telescope-2d",
                     "f*g equals the nine bi-parameter terms plus the coarse remainder",
                     partial(_run_telescope, dims=2, n=256, tol=1e-9), None, trials=2),
    InequalityTarget("weak-dualization",
                     "||f||_{p,inf} ~ sup_E inf_{major E~} ||f 1_E~||_r / |E|^(1/r-1/p)",
                     _run_weak_dualization, None, trials=50),
    InequalityTarget("stopping-invariants",
                     "triple stopping time: exact partition, per-level disjointness, "
                     "sum |I| <= C 2^n ||1_E chi||_1",
                     _run_stopping, 8.0, trials=100),
    InequalityTarget("size-energy",
                     "size <= C sup-average and energy <= C ||f||_1",
                     _run_size_energy, 4.0, trials=100),
    InequalityTarget("vv-paraproduct",
                     "||(sum |Pi(f_k,g_k)|^r)^(1/r)||_s <= C ||(sum |f_k|^r1)^(1/r1)||_p "
                     "||(sum |g_k|^r2)^(1/r2)||_q, uniformly in K",
                     _run_vv_paraproduct, 1.0, trials=40),
    InequalityTarget("alpha-coefficients",
                     "|c_n| (1+|n|)^(1+alpha) bounded",
                     _run_alpha_coefficients, 4.0, trials=0),
    InequalityTarget("shifted-growth",
                     "L2 norms of shifted maximal/square/paraproduct grow at most like "
                     "C log^kappa(1+|n|), kappa <= 2.5",
                     _run_shifted_growth, 2.5, trials=10),
    InequalityTarget("bht-multiplier",
                     "p.v. integral f(x-t)g(x+t) dt/t acts as -i pi sgn(xi-eta)",
                     _run_bht_multiplier, None, trials=0),
    InequalityTarget("bht-local-l2",
                     "||BHT_P(f,g)||_1 <= C ||f||_2 ||g||_2, uniform as tiles quadruple",
                     _run_bht_local_l2, 2.0, trials=34),
    InequalityTarget("range-consistency",
                     "case table for the admissible exponent region agrees with exact "
                     "theta-feasibility on the step-1/24 rational grid",
                     _run_range_consistency, None, trials=0),
    InequalityTarget("leibniz-mixed",
                     "||D1^a D2^b (fg)||_{s1,s2} <= C sum of four derivative-norm "
                     "products",
                     _run_leibniz, 1.0, trials=20),
    InequalityTarget("trilinear-size-energy",
                     "|Lambda(f,g,h)| <= C prod size^(2/3) energy^(1/3)",
                     _run_trilinear_size_energy, 8.0, trials=100),
    InequalityTarget("localized-trilinear",
                     "|Lambda_I0(f,g,h)| <= C prod size~^(2/3) ||. chi_I0||_1^(1/3)",
                     _run_localized_trilinear, 8.0, trials=100),
    InequalityTarget("local-l1",
                     "||Pi_I0(f,g) 1_E~||_1 <= C size~ f size~ g size~ 1_E~ |I0|",
                     _run_local_l1, 4.0, trials=100),
    InequalityTarget("localized-operator",
                     "||Pi_I0^{F,G,E~}(f,g)||_r <= C prod size~^(exponent-eps) "
                     "||f chi||_r1 ||g chi||_r2 at (3/2,3/2,3/4)",
                     _run_localized_operator, 4.0, trials=34),
    InequalityTarget("vv-localized",
                     "l^r-valued localized paraproduct bound at (3/2,3/2,3/4), K=4",
                     _run_vv_localized, 4.0, trials=30),
    InequalityTarget("bht-localized",
                     "||BHT_I0^{F,G,E~}(f,g)||_1 <= C prod size~^((1+theta)/2 - 1/r_i) "
                     "||f chi||_2 ||g chi||_2",
                     _run_bht_localized, 4.0, trials=50),
    InequalityTarget("tensor-mixed-norm",
                     "||Pi x Pi(f,g)||_{L2 L2} <= C ||f||_{L4 L4} ||g||_{L4 L4}",
                     _run_tensor_mixed_norm, 1.0, trials=50),
    InequalityTarget("depth2-vv",
                     "depth-2 vector-valued paraproduct bound with the (inf,2) pattern",
                     _run_depth2_vv, 1.0, trials=10),
)}


def target_names() -> list[str]:
    return list(REGISTRY)
