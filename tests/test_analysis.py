import math

import numpy as np
import pytest

from wavetile import analysis
from wavetile.analysis import (
    _greedy_disjoint,
    _local_square_function,
    average_single,
    energy,
    exceptional_set,
    maximal,
    shifted_square,
    size,
    size_single,
    size_tilde,
)
from wavetile.dyadic import DyadicInterval, grid_dyadic_family, torus_bump_samples
from wavetile.errors import MajorSubsetError
from wavetile.grid import GridFunction, SampleGrid, from_callable, max_scale
from wavetile.norms import MeasurableSet, lp_norm, weak_lp_norm


def subtree(root, depth):
    out = [root]
    level = [root]
    for _ in range(depth):
        level = [c for iv in level for c in iv.children()]
        out.extend(level)
    return out


def pruned_subtree(root, depth, seed):
    """Random subtree below root (root kept): roots select different members."""
    rng = np.random.default_rng(seed)
    return [iv for iv in subtree(root, depth) if iv == root or rng.random() < 0.7]


def band_limited(grid, seed, band):
    rng = np.random.default_rng(seed)
    n = grid.sample_count
    spec = np.zeros(n, dtype=complex)
    mask = np.abs(grid.frequencies()) <= band
    spec[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    return GridFunction(grid, np.fft.ifft(spec) * math.sqrt(n))


class TestSize:
    def test_indicator_over_itself(self):
        g = SampleGrid(2048, 32.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        rep = size(ind, [DyadicInterval(0, 0)], "modified")
        assert rep.value == pytest.approx(1.0, abs=1e-10)
        assert rep.witness == DyadicInterval(0, 0)

    def test_far_support_bracket(self):
        # direct quadrature of the bump tail brackets the average
        g = SampleGrid(4096, 32.0)
        f = from_callable(g, lambda x: ((x >= 10) & (x < 11)).astype(float))
        rep = size(f, [DyadicInterval(0, 0)], "modified", M=10)
        l1 = lp_norm(f, 1)
        assert 11.0 ** -10 * l1 <= rep.value <= 10.0 ** -10 * l1

    def test_sup_matches_brute_force(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        f = band_limited(g, 5, 40)
        for flavor in ("modified", "non-lacunary", "lacunary"):
            rep = size(f, family, flavor)
            brute = max(
                size_single(f, iv, flavor, family=family) for iv in family
            )
            assert rep.value == pytest.approx(brute, rel=1e-12)

    def test_witness_reproducible(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 3)
        f = band_limited(g, 6, 30)
        for flavor in ("modified", "non-lacunary", "lacunary"):
            rep = size(f, family, flavor)
            again = size_single(f, rep.witness, flavor, family=family)
            assert abs(again - rep.value) <= 1e-12 * max(rep.value, 1e-30)

    def test_monotone_in_family(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        f = band_limited(g, 7, 40)
        sub = family[::2]
        for flavor in ("modified", "non-lacunary"):
            assert size(f, sub, flavor).value <= size(f, family, flavor).value * (1 + 1e-12)

    def test_empty_family_rejected(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 8, 10)
        with pytest.raises(ValueError):
            size(f, [], "modified")


class TestLacunarySharedCoefficients:
    """size and energy share one set of lacunary coefficients across roots;
    both must equal the per-root recomputation bit for bit."""

    GRID = SampleGrid(512, 4.0)

    def test_size_equals_per_root_oracle(self):
        for seed in (1, 2, 3):
            family = pruned_subtree(DyadicInterval(0, 0), 4, seed)
            f = band_limited(self.GRID, 20 + seed, 40)
            brute = max(size_single(f, iv, "lacunary", family=family) for iv in family)
            assert size(f, family, "lacunary").value == brute

    def test_energy_equals_per_root_recomputation(self, monkeypatch):
        def per_root(f, family):
            return [
                weak_lp_norm(_local_square_function(f, family, root), 1)
                for root in family
            ]

        for seed in (1, 2, 3):
            family = pruned_subtree(DyadicInterval(0, 0), 4, seed)
            f = band_limited(self.GRID, 30 + seed, 40)
            shared = energy(f, family, "lacunary")
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_lacunary_weak_norms", per_root)
                recomputed = energy(f, family, "lacunary")
            assert shared == recomputed


class TestSizeTilde:
    def test_zero_function(self):
        g = SampleGrid(512, 4.0)
        zero = GridFunction(g, np.zeros(512, dtype=complex))
        assert size_tilde(zero, [DyadicInterval(1, 1)], I0=DyadicInterval(0, 0)).value == 0.0

    def test_dominates_plain_modified_size(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 3)
        worst = np.inf
        for seed in range(20):
            f = band_limited(g, seed, 30)
            st_val = size_tilde(f, family, I0=DyadicInterval(0, 0)).value
            sz = size(f, family, "modified").value
            worst = min(worst, st_val / sz)
            assert st_val >= sz * (1 - 1e-12)
        assert worst >= 1.0 - 1e-12  # family+ contains the family itself

    def test_ancestor_chain_example(self):
        # family {[0,1/4)}: the sup runs over its ancestors inside 3*I0
        g = SampleGrid(512, 4.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        root = DyadicInterval(0, 0)
        rep = size_tilde(ind, [DyadicInterval(2, 0)], I0=root)
        from wavetile.dyadic import collection_plus

        plus = collection_plus([DyadicInterval(2, 0)], bound=root)
        brute = max(average_single(ind, j, 10) for j in plus)
        assert rep.value == pytest.approx(brute, rel=1e-12)
        assert rep.witness in plus


class TestEnergy:
    def test_zero(self):
        g = SampleGrid(512, 4.0)
        zero = GridFunction(g, np.zeros(512, dtype=complex))
        rep = energy(zero, subtree(DyadicInterval(0, 0), 2))
        assert rep.value == 0.0 and rep.witness_family == ()

    def test_witness_identity(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        f = band_limited(g, 9, 40)
        rep = energy(f, family, "non-lacunary")
        total = sum(iv.length for iv in rep.witness_family)
        assert rep.value == pytest.approx(2.0 ** rep.witness_level * total, rel=1e-12)
        for a, b in zip(rep.witness_family, rep.witness_family[1:]):
            assert a.disjoint(b)

    def test_bounded_by_l1(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        worst = 0.0
        for seed in range(30):
            f = band_limited(g, 100 + seed, 40)
            worst = max(worst, energy(f, family).value / lp_norm(f, 1))
        assert worst <= 4.0

    def test_greedy_matches_tree_dp_oracle(self):
        # maximum-weight disjoint subfamily via exact dynamic programming
        rng = np.random.default_rng(12)
        pool = subtree(DyadicInterval(0, 0), 4)
        for _ in range(25):
            chosen = [iv for iv in pool if rng.random() < 0.45]
            greedy = _greedy_disjoint(chosen)
            chosen_set = set(chosen)

            def best(iv):
                own = iv.length if iv in chosen_set else 0.0
                if iv.scale >= 4:
                    return own
                return max(own, sum(best(c) for c in iv.children()))

            assert sum(iv.length for iv in greedy) == pytest.approx(
                best(DyadicInterval(0, 0)), rel=1e-12
            )

    def test_far_support_decay(self):
        g = SampleGrid(4096, 64.0)
        family = [DyadicInterval(j, m) for j in range(0, 4) for m in range(2 ** j)]
        vals = []
        for k in range(1, 6):
            center = 0.5 + (2.0 ** k - 1)
            f = from_callable(g, lambda x, c=center: (np.abs(x - c) < 0.5).astype(float))
            vals.append(energy(f, family, "non-lacunary").value)
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-9) or b < 1e-12


class TestMaximal:
    def test_constant_function(self):
        g = SampleGrid(1024, 8.0)
        one = GridFunction(g, np.ones(1024, dtype=complex))
        out = maximal(one, 0)
        assert out.samples.real.min() >= 1.0 - 1e-12
        # oracle: sup over the same dyadic family of periodized bump averages
        sup_quad = max(
            average_single(one, iv, 10)
            for iv in grid_dyadic_family(g)
        )
        assert out.samples.real.max() <= sup_quad * (1 + 1e-12)

    def test_witness_lower_bound(self):
        g = SampleGrid(1024, 8.0)
        f = from_callable(g, lambda x: (x < 1).astype(float))
        out = maximal(f, 0)
        at_two = out.samples.real[int(2 / g.spacing)]
        assert at_two >= 0.25

    def test_shifted_matches_direct_witness(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 20, 30)
        out = maximal(f, 3)
        iv = DyadicInterval(3, 5)
        val = average_single(f, iv, 10, shift_n=3)
        x_in = int(iv.left / g.spacing) + 1
        assert out.samples.real[x_in] >= val - 1e-12


class TestShiftedSquare:
    def test_zero(self):
        g = SampleGrid(512, 4.0)
        zero = GridFunction(g, np.zeros(512, dtype=complex))
        assert shifted_square(zero, 4).norm2() == 0.0

    def test_l2_bound_recorded(self):
        g = SampleGrid(512, 1.0)
        worst = 0.0
        for seed in range(20):
            f = band_limited(g, 200 + seed, 60)
            worst = max(worst, lp_norm(shifted_square(f, 0), 2) / lp_norm(f, 2))
        assert worst <= 4.0

    def test_translation_covariance_on_aligned_scales(self):
        # restrict to scales whose position lattice the shift preserves
        g = SampleGrid(512, 1.0)
        f = band_limited(g, 21, 50)
        scales = range(2, max_scale(g) + 1)
        shift = 512 // 4  # a full period of the coarsest included scale
        rolled = GridFunction(g, np.roll(f.samples, shift))
        lhs = shifted_square(rolled, 0, scales=scales)
        rhs = GridFunction(g, np.roll(shifted_square(f, 0, scales=scales).samples, shift))
        assert (lhs - rhs).norm2() <= 1e-10 * rhs.norm2()


class TestExceptionalSet:
    def test_far_small_mass_keeps_set(self):
        g = SampleGrid(1024, 8.0)
        protect = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        tiny = from_callable(g, lambda x: 0.01 * ((x > 6) & (x < 6.25)).astype(float))
        exc = exceptional_set(protect, [(tiny, None)], C=4.0)
        assert not (exc.omega.mask & protect.mask).any()
        assert exc.protected.measure == protect.measure

    def test_vanishing_constant_fails(self):
        g = SampleGrid(512, 4.0)
        protect = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        f = from_callable(g, lambda x: (x < 1).astype(float))
        with pytest.raises(MajorSubsetError):
            exceptional_set(protect, [(f, None)], C=1e-9)

    def test_equal_sets_with_default_constant(self):
        g = SampleGrid(512, 4.0)
        E = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        root_bump = GridFunction(
            g, torus_bump_samples(g, DyadicInterval(0, 0), 10).astype(complex)
        )
        exc = exceptional_set(E, [(E.indicator, root_bump), (E.indicator, root_bump)], C=4.0)
        assert exc.ratio >= 0.5
        assert exc.protected.measure >= 0.5 * E.measure


class TestDimensionGuards:
    def test_analysis_rejects_2d(self):
        import pytest
        from wavetile.analysis import maximal, size
        from wavetile.dyadic import DyadicInterval
        from wavetile.errors import ShapeError
        from wavetile.grid import GridFunction, SampleGrid
        import numpy as np

        g2 = SampleGrid(32, 1.0, dimension=2)
        f = GridFunction(g2, np.ones((32, 32), dtype=complex))
        with pytest.raises(ShapeError):
            maximal(f, 0)
        with pytest.raises(ShapeError):
            size(f, [DyadicInterval(2, 0)], "modified")


class TestSizeFlavorAliases:
    def test_bht_flavor_matches_modified(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 55, 30)
        family = subtree(DyadicInterval(0, 0), 3)
        a = size(f, family, "modified")
        b = size(f, family, "bht")
        assert a.value == b.value and a.witness == b.witness

    def test_shifted_flavor_uses_translated_bump(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 56, 30)
        family = [DyadicInterval(2, 1)]
        rep = size(f, family, "shifted", shift_n=3)
        direct = average_single(f, DyadicInterval(2, 1), 10, shift_n=3)
        assert rep.value == pytest.approx(direct, rel=1e-12)
        assert rep.shift == 3

    def test_size_tilde_outside_tripled_root(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 57, 30)
        with pytest.raises(ValueError):
            size_tilde(f, [DyadicInterval(2, 14)], I0=DyadicInterval(2, 0))
