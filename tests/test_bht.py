import numpy as np
import pytest

from wavetile.dyadic import DyadicInterval, build_rank_one_tiles
from wavetile.errors import AliasingError
from wavetile.grid import GridFunction, SampleGrid, low_pass_profile
from wavetile.norms import MeasurableSet, lp_norm
from wavetile.operators import (
    LocalizationSpec,
    ParaproductSpec,
    bht_kernel,
    bht_model,
    bht_spectral,
    localized_paraproduct,
    trilinear_form,
)

from oracles import inner, tile_packet


def modulated_bump(grid, freq, width=0.12):
    x = grid.points()
    w = low_pass_profile((x - 0.5) / width)
    return GridFunction(grid, w * np.exp(2j * np.pi * freq * x)), w


class TestKernelOracle:
    def test_multiplier_modulus_and_phase(self):
        n = 2048
        g = SampleGrid(n, 1.0)
        a, b = 5, 25
        fa, w = modulated_bump(g, a)
        gb, _ = modulated_bump(g, b)
        res = bht_kernel(fa, gb)
        c = n // 2
        idx = slice(c - n // 128, c + n // 128)
        x = g.points()[idx]
        predicted = 1j * np.pi * np.sign(b - a) * np.exp(2j * np.pi * (a + b) * x) * w[idx] ** 2
        rel = np.max(np.abs(res.samples[idx] - predicted)) / np.pi
        assert rel <= 0.03

    def test_sign_flips_when_arguments_swap(self):
        n = 2048
        g = SampleGrid(n, 1.0)
        fa, _ = modulated_bump(g, 5)
        gb, _ = modulated_bump(g, 25)
        c = n // 2
        idx = slice(c - n // 128, c + n // 128)
        fwd = bht_kernel(fa, gb).samples[idx]
        rev = bht_kernel(gb, fa).samples[idx]
        assert np.max(np.abs(fwd + rev)) <= 0.06 * np.pi

    def test_equal_frequencies_vanish(self):
        n = 2048
        g = SampleGrid(n, 1.0)
        fa, _ = modulated_bump(g, 9)
        res = bht_kernel(fa, fa)
        c = n // 2
        idx = slice(c - n // 128, c + n // 128)
        assert np.max(np.abs(res.samples[idx])) <= 0.05

    def test_even_inputs_vanish_at_center(self):
        n = 2048
        g = SampleGrid(n, 1.0)
        _, w = modulated_bump(g, 0)
        even = GridFunction(g, w.astype(complex))
        res = bht_kernel(even, even)
        scale = lp_norm(even, np.inf) ** 2
        assert abs(res.samples[n // 2]) <= 1e-8 * scale

    def test_support_near_pad_rejected(self):
        n = 2048
        g = SampleGrid(n, 1.0)
        x = g.points()
        wide = GridFunction(g, low_pass_profile((x - 0.5) / 0.3).astype(complex))
        with pytest.raises(AliasingError):
            bht_kernel(wide, wide)

    def test_dilation_covariance(self):
        n = 4096
        g = SampleGrid(n, 1.0)
        c = n // 2
        x = g.points()
        fa, _ = modulated_bump(g, 3)
        gb, _ = modulated_bump(g, 15)
        res = bht_kernel(fa, gb)

        def dilate(fn):
            i = np.arange(n)
            src = ((2 * (i - c) + c) % n).astype(int)
            vals = fn.samples[src] * (np.abs(x - 0.5) <= 0.125)
            return GridFunction(g, vals)

        rd = bht_kernel(dilate(fa), dilate(gb))
        i = np.arange(n)
        src = ((2 * (i - c) + c) % n).astype(int)
        mask = np.abs(x - 0.5) <= 0.2
        ref = res.samples[src] * mask
        got = rd.samples * mask
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(res.samples))
        assert rel <= 0.01

    def test_spectral_reference_close_to_quadrature(self):
        g = SampleGrid(2048, 1.0)
        fa, _ = modulated_bump(g, 5)
        gb, _ = modulated_bump(g, 25)
        quad = bht_kernel(fa, gb)
        spectral = bht_spectral(fa, gb)
        discrepancy = (quad - spectral).norm2() / spectral.norm2()
        assert 0.0 <= discrepancy <= 0.1


def roll_kernel(f, g):
    """The quadrature summed shift by shift with np.roll copies."""
    n = f.grid.sample_count
    fs, gs = f.samples, g.samples
    out = np.zeros(n, dtype=complex)
    for j in range(1, n // 4 + 1):
        out += (np.roll(fs, j) * np.roll(gs, -j) - np.roll(fs, -j) * np.roll(gs, j)) / j
    return out


def direct_multiplier(f, g):
    """-i pi sum_{i,j} F_i G_j sgn(m_i - m_j) e_{i+j} / n**2, every bin."""
    n = f.grid.sample_count
    m = f.grid.frequencies()
    F, G = np.fft.fft(f.samples), np.fft.fft(g.samples)
    x = np.arange(n)
    pairs = F[:, None] * G[None, :] * np.sign(m[:, None] - m[None, :])
    waves = np.exp(2j * np.pi * (m[:, None, None] + m[None, :, None]) * x / n)
    return -1j * np.pi * np.einsum("ij,ijx->x", pairs, waves) / n ** 2


class TestOraclePair:
    def test_kernel_equals_roll_loop(self):
        g = SampleGrid(2048, 1.0)
        fa, _ = modulated_bump(g, 5)
        gb, _ = modulated_bump(g, 25)
        for f, h in ((fa, gb), (gb, fa), (fa, fa)):
            assert np.array_equal(bht_kernel(f, h).samples, roll_kernel(f, h))

    def test_spectral_matches_direct_double_sum(self):
        g = SampleGrid(64, 1.0)
        rng = np.random.default_rng(3)
        F = rng.normal(size=64) + 1j * rng.normal(size=64)
        F[::5] *= 1e-16  # bins below the 1e-14 activity threshold
        f = GridFunction(g, np.fft.ifft(F))
        h = GridFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        for a, b in ((f, h), (h, f)):
            want = direct_multiplier(a, b)
            got = bht_spectral(a, b).samples
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_spectral_equal_frequencies_vanish(self):
        # sgn(0) = 0: one mode against itself has no output, and two modes
        # meet only through their unequal pairs
        g = SampleGrid(64, 1.0)
        x = g.points()
        mode = GridFunction(g, np.exp(2j * np.pi * 7 * x))
        assert np.abs(bht_spectral(mode, mode).samples).max() <= 1e-12
        two = GridFunction(g, np.exp(2j * np.pi * 3 * x) + np.exp(-2j * np.pi * 5 * x))
        want = direct_multiplier(two, two)
        assert np.abs(want).max() <= 1e-12  # sgn(3 + 5) and sgn(-5 - 3) cancel
        assert np.abs(bht_spectral(two, two).samples).max() <= 1e-12
        zero = GridFunction(g, np.zeros(64, dtype=complex))
        assert np.array_equal(bht_spectral(zero, two).samples, np.zeros(64))


class TestModelOperator:
    """BHT_P is the model sum of a tile spec, ``ParaproductSpec.constant``
    over tritiles, so it has the paraproduct's trilinear form and
    localization."""

    GRID = SampleGrid(512, 1.0)
    TILES = build_rank_one_tiles(GRID, range(3, 6), range(0, 4))

    def test_empty_collection(self):
        g = SampleGrid(512, 1.0)
        spec = ParaproductSpec.constant(g, [])
        f = GridFunction(g, np.ones(512, dtype=complex))
        assert bht_model(spec, f, f).norm2() == 0.0

    def test_non_dyadic_period_rejected(self):
        tiles = build_rank_one_tiles(SampleGrid(256, 1.0), range(2, 3), range(0, 1))
        g = SampleGrid(256, 3.0)
        f = GridFunction(g, np.ones(256, dtype=complex))
        with pytest.raises(ValueError, match="power-of-two period, got 3.0"):
            bht_model(ParaproductSpec.constant(g, tiles), f, f)

    def test_single_tile_rank_one(self):
        g = SampleGrid(512, 1.0)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.normal(size=512) + 1j * rng.normal(size=512))
        h = GridFunction(g, rng.normal(size=512) + 1j * rng.normal(size=512))
        layer_a = build_rank_one_tiles(g, range(3, 4), range(2, 3))
        layer_b = build_rank_one_tiles(g, range(4, 5), range(1, 2))
        # one tile, then two (scale, freq) layers with a repeated tile
        for tiles in ([layer_a[3]], [layer_a[3], layer_b[5], layer_a[3], layer_a[6]]):
            out = bht_model(ParaproductSpec.constant(g, tiles), f, h)
            want = 0
            for tile in tiles:
                p1, p2, p3 = (tile_packet(g, tile, s) for s in (1, 2, 3))
                want = want + (
                    tile.spatial.length ** -0.5 * inner(f, p1) * inner(h, p2) * p3.samples
                )
            assert np.abs(out.samples - want).max() <= 1e-12

    def test_local_l2_sample_bound(self):
        g = SampleGrid(1024, 1.0)
        tiles = build_rank_one_tiles(g, range(2, 5), range(0, 4))
        spec = ParaproductSpec.constant(g, tiles)
        rng = np.random.default_rng(1)
        worst = 0.0
        for seed in range(20):
            m = g.frequencies()
            sf = np.zeros(1024, dtype=complex)
            mask = np.abs(m) <= 12
            r = np.random.default_rng(seed)
            sf[mask] = r.normal(size=mask.sum()) + 1j * r.normal(size=mask.sum())
            f = GridFunction(g, np.fft.ifft(sf) * 32)
            sg = np.zeros(1024, dtype=complex)
            sg[mask] = r.normal(size=mask.sum()) + 1j * r.normal(size=mask.sum())
            h = GridFunction(g, np.fft.ifft(sg) * 32)
            denom = lp_norm(f, 2) * lp_norm(h, 2)
            worst = max(worst, lp_norm(bht_model(spec, f, h), 1) / denom)
        assert worst <= 2.0

    def test_bilinearity(self):
        g = SampleGrid(512, 1.0)
        tiles = build_rank_one_tiles(g, range(3, 5), range(0, 2))
        spec = ParaproductSpec.constant(g, tiles)
        rng = np.random.default_rng(2)
        f = GridFunction(g, rng.normal(size=512).astype(complex))
        h = GridFunction(g, rng.normal(size=512).astype(complex))
        assert np.array_equal(
            bht_model(spec, 2.0 * f, h).samples, 2.0 * bht_model(spec, f, h).samples
        )

    def test_trilinear_form_pairs_with_model_output(self):
        spec = ParaproductSpec.constant(self.GRID, self.TILES)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f, g, h = (GridFunction(self.GRID, rng.normal(size=512) + 1j * rng.normal(size=512))
                       for _ in range(3))
            pairing = inner(bht_model(spec, f, g), h)
            assert abs(trilinear_form(spec, f, g, h) - pairing) <= 1e-12 * abs(pairing)

    def test_restricted_keeps_tiles_inside_root_in_order(self):
        root = DyadicInterval(1, 1)
        tiles = self.TILES[::-1] + self.TILES[:3]
        spec = ParaproductSpec(self.GRID, tiles, np.arange(len(tiles)))
        inside = spec.restricted(root)
        keep = [i for i, t in enumerate(tiles) if root.contains(t.spatial)]
        assert 0 < len(keep) < len(tiles)
        assert inside.family == [tiles[i] for i in keep]
        assert np.array_equal(inside.coefficients, keep)

    def test_localized_equals_hand_localization(self):
        # the cut-offs and the tile filter written out, as a caller would
        root = DyadicInterval(1, 1)
        rng = np.random.default_rng(6)
        f, g = (GridFunction(self.GRID, rng.normal(size=512) + 1j * rng.normal(size=512))
                for _ in range(2))
        F, G, Et = (MeasurableSet(GridFunction(self.GRID, (rng.random(512) < 0.5) * (1 + 0j)))
                    for _ in range(3))
        out = localized_paraproduct(ParaproductSpec.constant(self.GRID, self.TILES),
                                    LocalizationSpec(root, F, G, Et), f, g)
        inside = [t for t in self.TILES if root.contains(t.spatial)]
        hand = bht_model(ParaproductSpec.constant(self.GRID, inside),
                         GridFunction(self.GRID, f.samples * F.mask),
                         GridFunction(self.GRID, g.samples * G.mask))
        assert np.array_equal(out.samples, hand.samples * Et.mask)


def test_kernel_rejects_2d():
    g2 = SampleGrid(32, 1.0, dimension=2)
    f = GridFunction(g2, np.zeros((32, 32), dtype=complex))
    with pytest.raises(ValueError):
        bht_kernel(f, f)
