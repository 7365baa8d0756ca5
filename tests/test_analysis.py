import math

import numpy as np
import pytest

from wavetile import analysis
from wavetile.analysis import (
    _averages,
    _containment,
    _greedy_disjoint,
    _lacunary_weak_norms,
    average_single,
    energy,
    exceptional_set,
    maximal,
    shifted_square,
    size,
    size_energy,
    size_tilde,
)
from wavetile.dyadic import (
    DyadicInterval,
    WavePacketFamily,
    collection_plus,
    grid_dyadic_family,
    interval_indices,
    torus_bump_samples,
)
from wavetile.bench import generate_trial
from wavetile.bench.generate import rng_for
from wavetile.bench.targets import _subfamily
from wavetile.errors import MajorSubsetError, ShapeError
from wavetile.grid import GridFunction, SampleGrid, max_scale
from wavetile.norms import MeasurableSet, lp_norm, weak_lp_norm

from oracles import disjoint, local_square_function, size_single
from test_grid import from_callable


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


def swept_size(f, family, flavor):
    """The size of one flavor by its one route: size for the modified
    flavor, size_energy for the packet flavors."""
    if flavor == "modified":
        return size(f, family)
    return size_energy(f, family, flavor)[0]


class TestSize:
    def test_indicator_over_itself(self):
        g = SampleGrid(2048, 32.0)
        ind = from_callable(g, lambda x: (x < 1).astype(float))
        rep = size(ind, [DyadicInterval(0, 0)])
        assert rep.value == pytest.approx(1.0, abs=1e-10)
        assert rep.witness == DyadicInterval(0, 0)

    def test_far_support_bracket(self):
        # direct quadrature of the bump tail brackets the average
        g = SampleGrid(4096, 32.0)
        f = from_callable(g, lambda x: ((x >= 10) & (x < 11)).astype(float))
        rep = size(f, [DyadicInterval(0, 0)], M=10)
        l1 = lp_norm(f, 1)
        assert 11.0 ** -10 * l1 <= rep.value <= 10.0 ** -10 * l1

    def test_sup_matches_brute_force(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        f = band_limited(g, 5, 40)
        for flavor in ("modified", "non-lacunary", "lacunary"):
            rep = swept_size(f, family, flavor)
            brute = max(
                size_single(f, iv, flavor, family=family) for iv in family
            )
            assert rep.value == pytest.approx(brute, rel=1e-12)

    def test_witness_reproducible(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 3)
        f = band_limited(g, 6, 30)
        for flavor in ("modified", "non-lacunary", "lacunary"):
            rep = swept_size(f, family, flavor)
            again = size_single(f, rep.witness, flavor, family=family)
            assert abs(again - rep.value) <= 1e-12 * max(rep.value, 1e-30)

    def test_monotone_in_family(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        f = band_limited(g, 7, 40)
        sub = family[::2]
        for flavor in ("modified", "non-lacunary"):
            assert (swept_size(f, sub, flavor).value
                    <= swept_size(f, family, flavor).value * (1 + 1e-12))

    def test_empty_family_rejected(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 8, 10)
        with pytest.raises(ValueError):
            size(f, [])


class TestLacunarySharedCoefficients:
    """The lacunary size and energy share one set of coefficients across
    roots; both must equal the per-root recomputation bit for bit."""

    GRID = SampleGrid(512, 4.0)

    def test_size_equals_per_root_oracle(self):
        for seed in (1, 2, 3):
            family = pruned_subtree(DyadicInterval(0, 0), 4, seed)
            f = band_limited(self.GRID, 20 + seed, 40)
            brute = max(size_single(f, iv, "lacunary", family=family) for iv in family)
            assert size_energy(f, family, "lacunary")[0].value == brute

    def test_energy_equals_per_root_recomputation(self, monkeypatch):
        def per_root(f, family):
            return [
                weak_lp_norm(local_square_function(f, family, root), 1)
                for root in family
            ]

        for seed in (1, 2, 3):
            family = pruned_subtree(DyadicInterval(0, 0), 4, seed)
            f = band_limited(self.GRID, 30 + seed, 40)
            shared = size_energy(f, family, "lacunary")[1]
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_lacunary_weak_norms", per_root)
                recomputed = size_energy(f, family, "lacunary")[1]
            assert shared == recomputed


class TestSizeEnergy:
    """size_energy gives the size and the energy of a packet flavor from one
    sweep; its size equals the one-interval oracle's supremum bit for bit."""

    GRID = SampleGrid(512, 4.0)  # size-energy's grid
    KINDS = (("step", "depth", 4), ("bump_train", "count", 3), ("band_limited", "band", 24))
    FLAVORS = ("non-lacunary", "lacunary")

    def _cases(self):
        for seed in (3, 4, 5):
            family = _subfamily(rng_for(seed, 5), DyadicInterval(0, 0), 4)
            for kind, key, value in self.KINDS:
                yield generate_trial(kind, seed, {"grid": self.GRID, key: value}), family

    def test_size_equals_one_interval_oracle(self):
        for f, family in self._cases():
            for flavor in self.FLAVORS:
                got = size_energy(f, family, flavor)[0].value
                assert got == max(size_single(f, iv, flavor, family) for iv in family)

    def test_one_evaluation_per_call(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(analysis, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("_lacunary_weak_norms", "_non_lacunary_values"):
            monkeypatch.setattr(analysis, name, counted(name))
        f, family = next(self._cases())
        for flavor, name in zip(self.FLAVORS, ("_non_lacunary_values", "_lacunary_weak_norms")):
            calls.clear()
            size_energy(f, family, flavor)
            assert calls == [name]

    def test_errors_match_energy(self):
        f, family = next(self._cases())
        with pytest.raises(ValueError):
            energy(f, [])
        for args in (([], "lacunary"), (family, "modified"), (family, "bogus")):
            with pytest.raises(ValueError):
                size_energy(f, *args)

    def test_vector_and_2d_inputs_name_the_shape(self):
        family = subtree(DyadicInterval(0, 0), 2)
        rng = np.random.default_rng(9)
        inputs = [GridFunction(self.GRID, rng.normal(size=(512, K)).astype(complex))
                  for K in (3, len(family))]
        inputs.append(GridFunction(SampleGrid(64, 4.0, dimension=2),
                                   rng.normal(size=(64, 64)).astype(complex)))
        for f in inputs:
            for call in (size, energy):
                with pytest.raises(ShapeError, match="scalar 1d"):
                    call(f, family)
            for flavor in self.FLAVORS:
                with pytest.raises(ShapeError, match="scalar 1d"):
                    size_energy(f, family, flavor)


class TestBatchedWeakNorms:
    """All roots at once must give the per-root weak norms bit for bit."""

    def test_containment_matches_interval_test(self):
        pool = subtree(DyadicInterval(-1, 0), 3) + subtree(DyadicInterval(-1, -1), 2)
        pool += [DyadicInterval(2, -5), DyadicInterval(0, 3)]
        got = _containment(pool, pool)
        want = np.array([[a.contains(b) for b in pool] for a in pool])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("period", [1.0, 4.0])
    def test_equals_per_root_weak_norms(self, period):
        g = SampleGrid(256, period)
        top = DyadicInterval(1 - g.log2_period(), 0)
        rng = np.random.default_rng(int(period))
        for seed in range(6):
            family = pruned_subtree(top, 3, seed)
            family += pruned_subtree(DyadicInterval(top.scale, 1), 2, seed + 50)
            family += [family[i] for i in rng.integers(0, len(family), 3)]  # repeats
            family = [family[i] for i in rng.permutation(len(family))]
            f = band_limited(g, 60 + seed, 50)
            want = [weak_lp_norm(local_square_function(f, family, root), 1) for root in family]
            assert _lacunary_weak_norms(f, family) == want


class TestBatchedAverages:
    """The one-pass chi-averages of the modified size and the stopping sweep
    must equal average_single, the direct route, bit for bit."""

    @pytest.mark.parametrize("M", [4, 10, 20])
    def test_equals_average_single(self, M):
        g = SampleGrid(512, 4.0)
        root = DyadicInterval(0, 0)
        # every ancestor within 3*root of a subtree inside the root and of
        # subtrees of its two neighbours, which lie outside it
        members = subtree(root, 4)
        members += subtree(DyadicInterval(0, -1), 2) + subtree(DyadicInterval(0, 1), 2)
        pool = collection_plus(members, root)
        assert any(not root.contains(iv) for iv in pool)
        indicator = from_callable(g, lambda x: ((x > 0.3) & (x < 1.2)).astype(float))
        for f in (band_limited(g, 70 + M, 40), indicator):
            want = [average_single(f, iv, M) for iv in pool]
            assert _averages(f, pool, M).tolist() == want


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
            sz = size(f, family).value
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

    def test_size_tilde_outside_tripled_root(self):
        g = SampleGrid(512, 4.0)
        f = band_limited(g, 57, 30)
        with pytest.raises(ValueError):
            size_tilde(f, [DyadicInterval(2, 14)], I0=DyadicInterval(2, 0))


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
        rep = energy(f, family)
        total = sum(iv.length for iv in rep.witness_family)
        assert rep.value == pytest.approx(2.0 ** rep.witness_level * total, rel=1e-12)
        for a, b in zip(rep.witness_family, rep.witness_family[1:]):
            assert disjoint(a, b)

    def test_bounded_by_l1(self):
        g = SampleGrid(512, 4.0)
        family = subtree(DyadicInterval(0, 0), 4)
        worst = 0.0
        for seed in range(30):
            f = band_limited(g, 100 + seed, 40)
            worst = max(worst, energy(f, family).value / lp_norm(f, 1))
        assert worst <= 4.0

    @pytest.mark.parametrize("c, want", [(np.nextafter(8.0, 0.0), 4.0),
                                         (np.nextafter(0.25, 0.0), 0.125)])
    def test_level_of_a_value_just_below_a_power_of_two(self, c, want, monkeypatch):
        # np.log2 rounds c up to the power of two, whose threshold c misses
        g = SampleGrid(64, 1.0)
        monkeypatch.setattr(WavePacketFamily, "coefficients", lambda self, f, route: np.array([c]))
        zero = GridFunction(g, np.zeros(64, dtype=complex))
        rep = energy(zero, [DyadicInterval(0, 0)])
        assert rep.value == want and rep.witness_family == (DyadicInterval(0, 0),)

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
            vals.append(energy(f, family).value)
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
        val = average_single(f, DyadicInterval(iv.scale, iv.position + 3), 10)
        x_in = int(iv.position * iv.length / g.spacing) + 1
        assert out.samples.real[x_in] >= val - 1e-12

    @pytest.mark.parametrize("shift_n", [0, 3])
    def test_equals_sup_of_direct_averages(self, shift_n):
        # oracle: at each sample, the sup of the direct-quadrature averages
        # over every budgeted dyadic interval containing it
        g = SampleGrid(128, 2.0)
        f = band_limited(g, 21, 20)
        want = np.zeros(g.sample_count)
        for iv in grid_dyadic_family(g):
            idx = interval_indices(g, iv)
            shifted = DyadicInterval(iv.scale, iv.position + shift_n)
            want[idx] = np.maximum(want[idx], average_single(f, shifted, 10))
        got = maximal(f, shift_n).samples.real
        assert np.abs(got - want).max() <= 1e-12 * want.max()


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
            size(f, [DyadicInterval(2, 0)])


def _brute_torus_distance(grid, mask):
    """Distance from each sample to the nearest True sample, one pair at a time."""
    n = grid.sample_count
    out = np.full(n, np.inf)
    for i in range(n):
        for j in np.flatnonzero(mask):
            out[i] = min(out[i], min(abs(i - j), n - abs(i - j)) * grid.spacing)
    return out


class TestDistanceToMask:
    @pytest.mark.parametrize("runs", [
        [(22, 27)],  # the nearest True to index 0 lies across the wrap
        [(3, 6), (20, 22)],
        [(28, 32), (0, 3)],
        [(0, 32)],
        [],
    ], ids=["one-run", "two-runs", "wrapping-run", "all-true", "all-false"])
    def test_matches_brute_force_torus_distance(self, runs):
        g = SampleGrid(32, 4.0)
        mask = np.zeros(32, dtype=bool)
        for lo, hi in runs:
            mask[lo:hi] = True
        got = analysis._distance_to_mask(g, mask)
        assert np.array_equal(got, _brute_torus_distance(g, mask))
