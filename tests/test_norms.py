from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetile import norms
from wavetile.bench import ExperimentConfig, generate_trial
from wavetile.dyadic import DyadicInterval, torus_bump_samples
from wavetile.errors import MajorSubsetError, ShapeError
from wavetile.grid import GridFunction, SampleGrid
from wavetile.norms import (
    INF,
    ExponentTuple,
    MeasurableSet,
    MixedNormSpec,
    dualize_superlevel_sets,
    dualize_weak_via_Lr,
    lp_norm,
    major_subset_L1,
    mixed_norm,
    weak_lp_norm,
)

from oracles import distribution_function
from test_grid import from_callable


def random_step(grid, seed, depth=4):
    rng = np.random.default_rng(seed)
    cells = 2 ** (depth + grid.log2_period())
    vals = rng.uniform(-1, 1, cells)
    return GridFunction(grid, np.repeat(vals, grid.sample_count // cells).astype(complex))


class TestLpNorm:
    def test_indicator_on_period_two(self):
        g = SampleGrid(512, 2.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        assert lp_norm(ind, 2) == pytest.approx(1.0, abs=1e-14)

    def test_sup_norm(self):
        g = SampleGrid(64)
        f = GridFunction(g, np.linspace(0, 3, 64).astype(complex))
        assert lp_norm(f, INF) == 3.0

    def test_weighted_matches_fine_quadrature(self):
        # oracle: trapezoid quadrature of the periodized bump on a 16x grid
        g = SampleGrid(256, 4.0)
        iv = DyadicInterval(0, 0)
        weight = GridFunction(g, torus_bump_samples(g, iv, 10).astype(complex))
        one = GridFunction(g, np.ones(256, dtype=complex))
        got = lp_norm(one, 1, weight=weight)
        fine = SampleGrid(4096, 4.0)
        quad = float(np.sum(torus_bump_samples(fine, iv, 10)) * fine.spacing)
        assert got == pytest.approx(quad, rel=1e-3)


    def test_weight_on_another_grid_raises(self):
        f = GridFunction(SampleGrid(64, 1.0), np.ones(64, dtype=complex))
        for grid in (SampleGrid(64, 4.0), SampleGrid(128, 1.0)):
            w = GridFunction(grid, np.ones(grid.sample_count, dtype=complex))
            with pytest.raises(ShapeError, match="different grids"):
                lp_norm(f, 2, weight=w)


class TestDistributionFunction:
    def test_step_examples(self):
        g = SampleGrid(512, 2.0)
        f = 2 * from_callable(g, lambda x: (x < 1).astype(float))
        assert distribution_function(f, 1.0) == pytest.approx(1.0)
        assert distribution_function(f, 5.0) == 0.0

    def test_layer_cake_reproduces_lp(self):
        # oracle: direct norm; identity p * int lambda^(p-1) d(lambda)
        g = SampleGrid(1024, 1.0)
        f = random_step(g, 9, depth=5)
        p = 1.7
        lam = np.linspace(1e-4, 1.2 * lp_norm(f, INF), 4000)
        d = np.array([distribution_function(f, x) for x in lam])
        y = lam ** (p - 1) * d
        integral = p * float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(lam)))
        assert integral == pytest.approx(lp_norm(f, p) ** p, rel=0.02)


class TestWeakNorm:
    def test_scaled_indicator(self):
        g = SampleGrid(512, 2.0)
        ind = from_callable(g, lambda x: (x < 0.5).astype(float))
        assert weak_lp_norm(3 * ind, 2) == pytest.approx(3 * 0.5 ** 0.5)

    def test_inverse_sqrt_profile(self):
        g = SampleGrid(4096, 1.0)
        x = (np.arange(4096) + 1) / 4096
        f = GridFunction(g, (x ** -0.5).astype(complex))
        assert weak_lp_norm(f, 2) == pytest.approx(1.0, rel=0.05)

    def test_matches_exhaustive_threshold_oracle(self):
        g = SampleGrid(256, 1.0)
        f = random_step(g, 4)
        vals = np.abs(f.samples)
        best = 0.0
        for v in np.unique(vals):
            if v <= 0:
                continue
            lam = v * (1 - 1e-12)
            best = max(best, lam * distribution_function(f, lam) ** 0.5)
        assert weak_lp_norm(f, 2) == pytest.approx(best, rel=1e-10)

    def test_chebyshev(self):
        g = SampleGrid(256, 1.0)
        for seed in range(5):
            f = random_step(g, seed)
            for p in (0.75, 1, 2, 3):
                assert weak_lp_norm(f, p) <= lp_norm(f, p) * (1 + 1e-12)


    @pytest.mark.parametrize("p", [0, -1, Fraction(-1, 2), -INF])
    def test_nonpositive_exponent_rejected(self, p):
        f = GridFunction(SampleGrid(64, 1.0), np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="p must be positive"):
            weak_lp_norm(f, p)


class TestMixedNorm:
    def test_constant_on_unit_square(self):
        g = SampleGrid(32, 1.0, dimension=2)
        one = GridFunction(g, np.ones((32, 32), dtype=complex))
        assert mixed_norm(one, MixedNormSpec((2, 2))) == pytest.approx(1.0)

    def test_separable_factorization(self):
        g2 = SampleGrid(64, 1.0, dimension=2)
        g1 = SampleGrid(64, 1.0)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=64), rng.normal(size=64)
        f = GridFunction(g2, np.outer(a, b).astype(complex))
        fa = GridFunction(g1, a.astype(complex))
        fb = GridFunction(g1, b.astype(complex))
        got = mixed_norm(f, MixedNormSpec((3, Fraction(3, 2))))
        want = lp_norm(fa, 3) * lp_norm(fb, Fraction(3, 2))
        assert got == pytest.approx(want, rel=1e-10)

    def test_three_axis_matches_nested_loops(self):
        # oracle: literal iterated sums, innermost last axis first
        g = SampleGrid(16, 1.0)
        rng = np.random.default_rng(1)
        t = rng.normal(size=(16, 3, 4)) + 1j * rng.normal(size=(16, 3, 4))
        f = GridFunction(g, t)
        spec = MixedNormSpec((1, Fraction(3, 4), 2))
        inner = np.empty((16, 3))
        for i in range(16):
            for j in range(3):
                inner[i, j] = np.sum(np.abs(t[i, j, :]) ** 2) ** 0.5
        mid = np.empty(16)
        for i in range(16):
            mid[i] = np.sum(inner[i, :] ** 0.75) ** (1 / 0.75)
        want = np.sum(mid * g.spacing)
        assert mixed_norm(f, spec) == pytest.approx(want, rel=1e-12)

    def test_infinite_layer(self):
        g = SampleGrid(16, 1.0)
        rng = np.random.default_rng(2)
        t = rng.normal(size=(16, 5))
        f = GridFunction(g, t.astype(complex))
        want = (np.sum(np.abs(t).max(axis=1) ** 2) * g.spacing) ** 0.5
        assert mixed_norm(f, MixedNormSpec((2, INF))) == pytest.approx(want)

    def test_homogeneity_exact(self):
        g = SampleGrid(16, 1.0)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.normal(size=(16, 4)).astype(complex))
        spec = MixedNormSpec((2, Fraction(3, 4)))
        assert mixed_norm(3.0 * f, spec) == pytest.approx(3 * mixed_norm(f, spec), rel=1e-13)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_quasi_triangle_at_minimal_power(self, seed):
        g = SampleGrid(16, 1.0)
        rng = np.random.default_rng(seed)
        f = GridFunction(g, rng.normal(size=(16, 4)).astype(complex))
        h = GridFunction(g, rng.normal(size=(16, 4)).astype(complex))
        spec = MixedNormSpec((Fraction(3, 4), 2))
        r = 3 / 4  # min(1, min_j r_j), the power that makes the norm subadditive
        lhs = mixed_norm(f + h, spec) ** r
        rhs = mixed_norm(f, spec) ** r + mixed_norm(h, spec) ** r
        assert lhs <= rhs * (1 + 1e-12)

    def test_depth_mismatch_raises(self):
        g = SampleGrid(16, 1.0)
        f = GridFunction(g, np.zeros((16, 4), dtype=complex))
        with pytest.raises(Exception):
            mixed_norm(f, MixedNormSpec((2,)))


class TestExponentAlgebra:
    def test_hoelder_is_enforced(self):
        ExponentTuple(4, 4, 2)
        ExponentTuple(Fraction(4, 3), 4, 1)
        with pytest.raises(ValueError):
            ExponentTuple(4, 4, 3)

    def test_infinite_exponents(self):
        ExponentTuple(INF, 2, 2)
        ExponentTuple(INF, INF, INF)
        with pytest.raises(ValueError):
            ExponentTuple(INF, 2, 4)

    @pytest.mark.parametrize("p", [0, -2, Fraction(-1, 2), -1.5, -INF])
    def test_non_positive_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="must be positive"):
            norms.recip(p)

    @pytest.mark.parametrize("triple", [(0, 2, 2), (-2, 2, INF), (2, 2, -1)])
    def test_non_positive_tuple_rejected(self, triple):
        with pytest.raises(ValueError, match="must be positive"):
            ExponentTuple(*triple)

    def test_hoelder_message_brackets_fractions(self):
        with pytest.raises(ValueError) as err:
            ExponentTuple(Fraction(5, 4), 4, 1)
        assert str(err.value) == "Hoelder scaling violated: 1/(5/4) + 1/4 != 1/1"


class TestWeakDualization:
    def test_bounded_function_keeps_whole_set(self):
        g = SampleGrid(512, 2.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        E = MeasurableSet(ind)
        tilde, ratio = dualize_weak_via_Lr(ind, E, 0.5, 1, 4.0)
        assert tilde.measure == E.measure
        assert ratio == pytest.approx(1.0)

    def test_zero_function(self):
        g = SampleGrid(64, 1.0)
        E = MeasurableSet(GridFunction(g, np.ones(64, dtype=complex)))
        zero = GridFunction(g, np.zeros(64, dtype=complex))
        tilde, ratio = dualize_weak_via_Lr(zero, E, 0.5, 1, 4.0)
        assert ratio == 0.0 and tilde.measure == E.measure

    def test_nonpositive_exponents_rejected(self):
        g = SampleGrid(64, 1.0)
        f = GridFunction(g, np.arange(64, dtype=complex))
        E = MeasurableSet(GridFunction(g, np.ones(64, dtype=complex)))
        for r, p, name in ((0, 1, "r"), (-1, 1, "r"), (2, 0, "p"), (2, -1, "p")):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                dualize_superlevel_sets(f, r, p, 4.0)
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                dualize_weak_via_Lr(f, E, r, p)

    def test_majorness_failure_reports_ratio(self):
        g = SampleGrid(64, 1.0)
        f = GridFunction(g, np.ones(64, dtype=complex))
        E = MeasurableSet(GridFunction(g, np.ones(64, dtype=complex)))
        with pytest.raises(MajorSubsetError) as err:
            dualize_weak_via_Lr(f, E, 0.5, 1, C=1e-6)
        assert err.value.achieved_ratio == 0.0

    def test_major_subset_l1_examples(self):
        g = SampleGrid(512, 2.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        E = MeasurableSet(ind)
        _, val = major_subset_L1(ind, E, 2, 4.0)
        assert val == pytest.approx(E.measure ** 0.5)
        off = from_callable(g, lambda x: (x >= 1).astype(float))
        _, val = major_subset_L1(off, E, 2, 4.0)
        assert val == 0.0

    def test_both_dualizations_trim_the_same_set(self):
        g = SampleGrid(256, 1.0)
        E = MeasurableSet.from_mask(g, np.arange(256) % 3 != 0)
        trimmed = 0
        for seed in range(8):
            f = random_step(g, seed, depth=6)
            for p, C in ((1, 2.0), (2, 1.5), (4, 1.0), (4, 4.0)):
                try:
                    tilde, _ = dualize_weak_via_Lr(f, E, 0.5, p, C)
                except MajorSubsetError:
                    with pytest.raises(MajorSubsetError):
                        major_subset_L1(f, E, p, C)
                    continue
                prime, _ = major_subset_L1(f, E, p, C)
                assert np.array_equal(tilde.mask, prime.mask)
                trimmed += tilde.measure < E.measure
        assert trimmed >= 8

    def test_pairing_below_weak_norm_multiple(self):
        g = SampleGrid(256, 1.0)
        E = MeasurableSet(GridFunction(g, np.ones(256, dtype=complex)))
        for seed in range(10):
            f = random_step(g, seed)
            _, val = major_subset_L1(f, E, 2, 4.0)
            assert val <= 4.0 * weak_lp_norm(f, 2) * (1 + 1e-12)


def _one_set_dualization(f, E, r, p, C):
    """(|E~|/|E|, ||f 1_E~||_r / |E|^(1/r-1/p)) of one set, written out with
    the one-set primitives; no majorness check."""
    measure = E.measure
    threshold = C * weak_lp_norm(f, p) / measure ** (1.0 / float(p))
    tilde = E.minus_mask(np.abs(f.samples) > threshold)
    value = lp_norm(GridFunction(f.grid, f.samples * tilde.mask), r)
    return tilde.measure / measure, float(value / measure ** (1.0 / float(r) - 1.0 / float(p)))


def _per_level_loop(f, r, p, C):
    """Oracle of the sweep: one set at a time over the superlevel sets of |f|."""
    shares, ratios = [], []
    for v in np.unique(np.abs(f.samples)):
        if v <= 0:
            continue
        mask = np.abs(f.samples) > v * (1 - 1e-12)
        if not mask.any():
            continue
        share, ratio = _one_set_dualization(f, MeasurableSet.from_mask(f.grid, mask), r, p, C)
        shares.append(share)
        ratios.append(ratio)
    return shares, ratios


def _step_trials(seed, count):
    """The first ``count`` step functions of the weak-dualization target at ``seed``."""
    grid = SampleGrid(512, 1.0)
    return [generate_trial("step", s, {"grid": grid, "depth": 5})
            for s in ExperimentConfig(seed=seed).seeds("weak-dualization", count)]


class TestSuperlevelSweep:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_equals_per_level_loop_bit_for_bit(self, seed):
        for f in _step_trials(seed, 8):
            for C in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert dualize_superlevel_sets(f, 0.5, 1.0, C) == _per_level_loop(f, 0.5, 1.0, C)

    @pytest.mark.parametrize("C", [0.25, 0.5, 1.0])
    def test_failures_are_the_sets_the_one_set_call_rejects(self, C):
        f = _step_trials(7, 1)[0]
        shares, ratios = dualize_superlevel_sets(f, 0.5, 1.0, C)
        levels = [v for v in np.unique(np.abs(f.samples)) if v > 0]
        assert len(shares) == len(levels) == 32
        failed = []
        for i, v in enumerate(levels):
            E = MeasurableSet.from_mask(f.grid, np.abs(f.samples) > v * (1 - 1e-12))
            try:
                _, ratio = dualize_weak_via_Lr(f, E, 0.5, 1.0, C)
            except MajorSubsetError as exc:
                assert exc.achieved_ratio == shares[i]
                failed.append(i)
                continue
            assert ratio == ratios[i]
        assert failed == [i for i, share in enumerate(shares) if share < 0.5]
        assert len(failed) == {0.25: 31, 0.5: 28, 1.0: 24}[C]

    @pytest.mark.parametrize("grid", [SampleGrid(256, 1.0), SampleGrid(32, 1.0, dimension=2)])
    def test_stack_equals_one_set_calls(self, grid):
        rng = np.random.default_rng(5)
        shape = (grid.sample_count,) * grid.dimension
        f = GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        density = np.linspace(0.05, 0.95, 12).reshape((-1,) + (1,) * len(shape))
        masks = rng.random((12,) + shape) < density
        seen = []
        for r, p, C in ((0.5, 1, 4.0), (0.75, 2, 1.0), (1.5, 4, 0.5), (INF, 2, 2.0)):
            trimmed, shares, measures = norms._major_subset(f, masks, p, C)
            seen += shares
            ratios = norms._lr_ratios(f, trimmed, measures, r, p)
            for i, mask in enumerate(masks):
                one, (share,), (measure,) = norms._major_subset(f, mask[None], p, C)
                assert np.array_equal(one[0], trimmed[i])
                assert (share, measure) == (shares[i], measures[i])
                assert norms._lr_ratios(f, one, [measure], r, p) == [ratios[i]]
                assert (share, ratios[i]) == _one_set_dualization(
                    f, MeasurableSet.from_mask(grid, mask), r, p, C)
        # the stacks hold failing, trimmed and untouched sets
        assert min(seen) < 0.5 and any(0.5 <= x < 1 for x in seen) and max(seen) == 1.0

    def test_empty_sets_are_skipped(self):
        grid = SampleGrid(64, 1.0)
        zero = GridFunction(grid, np.zeros(64, dtype=complex))
        assert dualize_superlevel_sets(zero, 0.5, 1, 4.0) == ([], [])
        # v (1 - 1e-12) rounds to v at the smallest subnormal: {|f| > v} is empty
        tiny = GridFunction(grid, np.full(64, 5e-324, dtype=complex))
        assert _per_level_loop(tiny, 0.5, 1, 4.0) == ([], [])
        assert dualize_superlevel_sets(tiny, 0.5, 1, 4.0) == ([], [])
