import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetile import dyadic
from wavetile.dyadic import (
    AdaptedBump,
    DyadicInterval,
    Tritile,
    WavePacketFamily,
    adapted_bump_eval,
    build_rank_one_tiles,
    collection_plus,
    grid_dyadic_family,
    localize_collection,
    min_packet_scale,
    tile_packet,
    tile_scale_coefficients,
    translate_interval,
)
from wavetile.errors import ScaleBudgetError
from wavetile.grid import GridFunction, SampleGrid


def full_tree(root, depth):
    out = [root]
    level = [root]
    for _ in range(depth):
        level = [c for iv in level for c in iv.children()]
        out.extend(level)
    return out


def endpoints(iv):
    # exact rational endpoints, the oracle's ground truth
    length = Fraction(1, 2 ** iv.scale) if iv.scale >= 0 else Fraction(2 ** -iv.scale)
    return iv.position * length, (iv.position + 1) * length


def contains_oracle(big, small):
    bl, br = endpoints(big)
    sl, sr = endpoints(small)
    return bl <= sl and sr <= br


class TestIntervalGeometry:
    def test_nesting_trichotomy_exhaustive_depth6(self):
        family = full_tree(DyadicInterval(0, 0), 6)
        for a, b in itertools.combinations(family, 2):
            relations = [a.disjoint(b), a.contains(b), b.contains(a)]
            assert sum(relations) == 1

    def test_containment_matches_rational_oracle(self):
        family = full_tree(DyadicInterval(-2, 0), 4)  # includes negative scales
        for a, b in itertools.product(family, repeat=2):
            assert a.contains(b) == contains_oracle(a, b)

    def test_translate_examples(self):
        assert translate_interval(DyadicInterval(0, 0), 3) == DyadicInterval(0, 3)
        assert translate_interval(DyadicInterval(1, 1), 0) == DyadicInterval(1, 1)
        # [1/2, 3/4) shifted left twice lands on [0, 1/4)
        assert translate_interval(DyadicInterval(2, 2), -2) == DyadicInterval(2, 0)


class TestLocalize:
    def test_enumerated_example(self):
        family = full_tree(DyadicInterval(0, 0), 2)
        got = localize_collection(family, DyadicInterval(1, 0))
        assert got == [DyadicInterval(1, 0), DyadicInterval(2, 0), DyadicInterval(2, 1)]

    def test_disjoint_root_gives_empty(self):
        family = full_tree(DyadicInterval(0, 0), 2)
        assert localize_collection(family, DyadicInterval(0, 5)) == []

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_filter(self, seed):
        rng = np.random.default_rng(seed)
        pool = full_tree(DyadicInterval(0, 0), 4)
        family = [iv for iv in pool if rng.random() < 0.4]
        root = pool[rng.integers(0, len(pool))]
        got = localize_collection(family, root)
        want = [iv for iv in family if contains_oracle(root, iv)]
        assert got == want


class TestCollectionPlus:
    def test_single_interval_ancestors(self):
        got = collection_plus([DyadicInterval(2, 0)], min_scale=-2)
        want = {DyadicInterval(j, 0) for j in range(-2, 3)}
        assert set(got) == want

    def test_empty_family(self):
        assert collection_plus([], min_scale=0) == []

    def test_bounded_outputs_inside_tripled_root(self):
        root = DyadicInterval(0, 0)
        family = full_tree(root, 3)
        for j in collection_plus(family, bound=root):
            lo, hi = endpoints(j)
            assert Fraction(-1) <= lo and hi <= Fraction(2)

    def test_matches_exhaustive_ancestor_enumeration(self):
        rng = np.random.default_rng(11)
        pool = full_tree(DyadicInterval(0, 0), 4)
        family = [iv for iv in pool if rng.random() < 0.3] or [pool[-1]]
        got = set(collection_plus(family, min_scale=-1))
        want = set()
        for iv in family:
            j = iv
            while j.scale >= -1:
                want.add(j)
                if j.scale == -1:
                    break
                j = j.parent()
        assert got == want


class TestAdaptedBump:
    def test_displayed_values(self):
        b = AdaptedBump(DyadicInterval(0, 0), 10)
        assert adapted_bump_eval(b, 0.5) == 1.0
        assert adapted_bump_eval(b, 2.0) == pytest.approx(2.0 ** -10, rel=1e-14)
        b2 = AdaptedBump(DyadicInterval(-1, 0), 10)
        assert adapted_bump_eval(b2, 3.0) == pytest.approx(1.5 ** -10, rel=1e-14)

    @given(st.floats(-8, 8, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_monotone(self, x):
        b = AdaptedBump(DyadicInterval(1, 2), 6)  # [1, 3/2)
        center = 1.25
        mirrored = adapted_bump_eval(b, 2 * center - x)
        assert adapted_bump_eval(b, x) == pytest.approx(mirrored, rel=1e-12)
        closer = center + 0.9 * (x - center)
        assert adapted_bump_eval(b, closer) >= adapted_bump_eval(b, x) - 1e-15

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            AdaptedBump(DyadicInterval(0, 0), 0)


class TestWavePackets:
    def test_normalization_and_window(self):
        g = SampleGrid(512, 1.0)
        for flavor, lo, hi in (("lacunary", 8, 16), ("non-lacunary", 0, 8)):
            fam = WavePacketFamily(g, [DyadicInterval(3, 1)], flavor)
            pk = fam.packet(DyadicInterval(3, 1))
            assert abs(pk.norm2() - 1.0) < 1e-10
            spec = np.abs(np.fft.fft(pk.samples))
            m = g.frequencies()
            outside = spec[(m < lo) | (m > hi)]
            assert outside.max() <= 1e-12 * spec.max()

    def test_coefficients_match_direct_inner_products(self):
        g = SampleGrid(256, 1.0)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256))
        family = [DyadicInterval(3, m) for m in range(8)] + [DyadicInterval(4, 5)]
        fam = WavePacketFamily(g, family, "lacunary")
        coefs = fam.coefficients(f)
        for iv, c in zip(family, coefs):
            assert abs(c - f.inner(fam.packet(iv))) < 1e-12

    def test_too_coarse_scale_rejected(self):
        g = SampleGrid(256, 1.0)
        assert min_packet_scale(g) == 1
        fam = WavePacketFamily(g, [], "lacunary")
        with pytest.raises(ScaleBudgetError):
            fam.packet(DyadicInterval(0, 0))

    def test_non_dyadic_period_rejected(self):
        g = SampleGrid(256, 3.0)
        with pytest.raises(ValueError, match="power-of-two period, got 3.0"):
            WavePacketFamily(g, [DyadicInterval(2, 0)], "lacunary")
        assert SampleGrid(256, 0.25).log2_period() == -2


class TestSharedSpectrumPath:
    """Sweeps take one FFT of the input and the cached packet spectra; the
    interval-aligned routes must give the per-scale values bit for bit."""

    GRID = SampleGrid(256, 2.0)
    # three scales, a repeated interval and positions that wrap (>= 2**(j+1))
    FAMILY = [
        DyadicInterval(3, 1), DyadicInterval(2, 7), DyadicInterval(3, 1),
        DyadicInterval(4, 40), DyadicInterval(2, 0), DyadicInterval(3, 17),
        DyadicInterval(3, 1),
    ]

    def _input(self, seed):
        rng = np.random.default_rng(seed)
        return GridFunction(self.GRID, rng.normal(size=256) + 1j * rng.normal(size=256))

    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    @pytest.mark.parametrize("shift_n", [0, 3])
    def test_coefficients_gather_per_scale_sweeps(self, flavor, shift_n):
        fam = WavePacketFamily(self.GRID, self.FAMILY, flavor)
        f = self._input(11)
        coefs = fam.coefficients(f, shift_n)
        kappa = self.GRID.log2_period()
        want = np.array([
            fam.scale_coefficients(f, [iv.scale], shift_n)[iv.scale][
                iv.position % 2 ** (iv.scale + kappa)
            ]
            for iv in self.FAMILY
        ])
        assert np.array_equal(coefs, want)

    def test_synthesize_accumulates_repeats_in_list_order(self):
        fam = WavePacketFamily(self.GRID, self.FAMILY, "non-lacunary")
        # (3, 1) three times and (3, 17), which wraps onto it: in list order
        # ((1 + 1e16) - 1e16) + 0.5 == 0.5, in reverse order the sum is 1
        w = self._input(12).samples[: len(self.FAMILY)].copy()
        w[0], w[2], w[5], w[6] = 1.0, 1e16, -1e16, 0.5
        kappa = self.GRID.log2_period()
        by_scale = {}
        for iv, wi in zip(self.FAMILY, w):
            arr = by_scale.setdefault(
                iv.scale, np.zeros(2 ** (iv.scale + kappa), dtype=complex)
            )
            arr[iv.position % len(arr)] += wi
        assert by_scale[3][1] == 0.5
        got = fam.synthesize(w)
        assert np.array_equal(got.samples, fam.scale_synthesize(by_scale).samples)

    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    def test_direct_packet_matches_cached_spectrum(self, flavor):
        g = self.GRID
        fam = WavePacketFamily(g, [], flavor)
        for iv in (DyadicInterval(2, 3), DyadicInterval(4, 37), DyadicInterval(5, 0)):
            spectrum = dyadic._base_packet(g.sample_count, g.period_length, iv.scale, flavor)
            assert not spectrum.flags.writeable
            shift = iv.position * dyadic._stride(g, iv.scale)
            want = np.roll(np.fft.ifft(spectrum), shift % g.sample_count)
            assert np.abs(fam.packet(iv).samples - want).max() <= 1e-12

    def test_direct_tile_packet_matches_cached_spectrum(self):
        g = self.GRID
        tile = Tritile(DyadicInterval(3, 5), 2)
        for slot in (1, 2, 3):
            spectrum = dyadic._tile_base_packet(g.sample_count, g.period_length, 3, 2, slot)
            assert not spectrum.flags.writeable
            want = np.roll(np.fft.ifft(spectrum), 5 * dyadic._stride(g, 3))
            assert np.abs(tile_packet(g, tile, slot).samples - want).max() <= 1e-12

    def test_budget_checks_on_both_routes(self):
        g = SampleGrid(256, 1.0)
        f = GridFunction(g, np.ones(256, dtype=complex))
        fam = WavePacketFamily(g, [], "lacunary")
        top = dyadic.max_scale(g)
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            fam.packet(DyadicInterval(top + 1, 0))
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            fam.scale_coefficients(f, [top + 1])
        # scale 0 on a unit period: the window [0, 1] holds no interior frequency
        coarse = Tritile(DyadicInterval(0, 0), 1)
        with pytest.raises(ScaleBudgetError, match="fewer than two frequencies"):
            tile_packet(g, coarse, 2)
        with pytest.raises(ScaleBudgetError, match="fewer than two frequencies"):
            tile_scale_coefficients(g, f, [(0, 1)], 2)


class TestTritiles:
    def test_count_and_invariants(self):
        g = SampleGrid(256, 1.0)
        tiles = build_rank_one_tiles(g, range(3, 5), range(0, 3))
        assert len(tiles) == (8 + 16) * 3
        for t in tiles[:20]:
            for slot in (1, 2, 3):
                lo, hi = t.omega(slot)
                assert (hi - lo) * t.spatial.length == pytest.approx(1.0)

    def test_frequency_blocks_pairwise_disjoint(self):
        # oracle: direct interval-overlap check on 100 random tiles
        g = SampleGrid(512, 1.0)
        tiles = build_rank_one_tiles(g, range(3, 6), range(0, 4))
        rng = np.random.default_rng(7)
        sample = [tiles[i] for i in rng.integers(0, len(tiles), 100)]
        for t in sample:
            windows = [t.omega(s) for s in (1, 2, 3)]
            for (a1, b1), (a2, b2) in itertools.combinations(windows, 2):
                assert min(b1, b2) <= max(a1, a2)

    def test_budget_violation(self):
        g = SampleGrid(256, 1.0)
        with pytest.raises(ScaleBudgetError):
            build_rank_one_tiles(g, range(5, 6), range(0, 64))

    def test_empty_ranges_rejected(self):
        g = SampleGrid(256, 1.0)
        with pytest.raises(ValueError):
            build_rank_one_tiles(g, range(3, 3), range(0, 1))


def test_grid_family_counts():
    g = SampleGrid(256, 2.0)
    fam = grid_dyadic_family(g, range(0, 3))
    assert len(fam) == 2 + 4 + 8  # positions double per scale on period 2
