import itertools
from fractions import Fraction

import numpy as np
import pytest

from wavetile import dyadic
from wavetile.dyadic import (
    DyadicInterval,
    Tritile,
    WavePacketFamily,
    build_rank_one_tiles,
    collection_plus,
    grid_dyadic_family,
    packet_scales,
    tile_scale_coefficients,
    torus_bump_samples,
)
from wavetile.errors import ScaleBudgetError, ShapeError
from wavetile.grid import GridFunction, SampleGrid, max_scale, scale_range

from oracles import disjoint, inner, packet, tile_packet, torus_bump_direct


def full_tree(root, depth):
    out = [root]
    level = [root]
    for _ in range(depth):
        level = [c for iv in level for c in iv.children()]
        out.extend(level)
    return out


def slot_window(tile, slot):
    """Frequency window of one tile slot, in cycles per unit length."""
    step = 2.0 ** tile.spatial.scale
    block = dyadic._slot_block(tile.freq_index, slot)
    return block * step, (block + 1) * step


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
            relations = [disjoint(a, b), a.contains(b), b.contains(a)]
            assert sum(relations) == 1

    def test_indices_list_each_sample_once(self):
        grid = SampleGrid(64, 1.0)
        for iv in (DyadicInterval(-2, 1), DyadicInterval(-1, 0), DyadicInterval(0, 0),
                   DyadicInterval(2, 3)):
            idx = dyadic.interval_indices(grid, iv)
            assert len(idx) == len(set(idx.tolist())) == min(64, round(iv.length * 64))

    def test_sub_sample_and_unaligned_intervals_raise(self):
        grid = SampleGrid(64, 1.0)
        assert dyadic._stride(grid, 6) == 1
        for scale in (7, 8):
            with pytest.raises(ScaleBudgetError, match="shorter than one sample"):
                dyadic._stride(grid, scale)
            with pytest.raises(ScaleBudgetError, match="shorter than one sample"):
                dyadic.interval_indices(grid, DyadicInterval(scale, 0))
        with pytest.raises(ScaleBudgetError, match="do not align"):
            dyadic._stride(SampleGrid(64, 3.0), 0)

    def test_containment_matches_rational_oracle(self):
        family = full_tree(DyadicInterval(-2, 0), 4)  # includes negative scales
        for a, b in itertools.product(family, repeat=2):
            assert a.contains(b) == contains_oracle(a, b)


def tripled_oracle(i0, j):
    # J inside 3*I0, from exact rational endpoints
    lo, hi = endpoints(i0)
    jl, jr = endpoints(j)
    return lo - (hi - lo) <= jl and jr <= hi + (hi - lo)


class TestCollectionPlus:
    def test_single_interval_ancestors(self):
        # 3*[0,1) = [-1,2) holds [0,1/4), [0,1/2), [0,1) and [0,2), not [0,4)
        got = collection_plus([DyadicInterval(2, 0)], DyadicInterval(0, 0))
        assert got == [DyadicInterval(j, 0) for j in (2, 1, 0, -1)]

    def test_empty_family(self):
        assert collection_plus([], DyadicInterval(0, 0)) == []

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
        for bound in (DyadicInterval(0, 0), DyadicInterval(1, 1), DyadicInterval(2, 1)):
            got = collection_plus(family, bound)
            want = set()
            for iv in family:
                j = iv
                while j.scale >= -3:
                    if tripled_oracle(bound, j):
                        want.add(j)
                    j = j.parent()
            assert len(got) == len(set(got))
            assert set(got) == want


class TestTorusBump:
    @pytest.mark.parametrize("n", [8, 64, 512, 1024])
    def test_equals_the_wrap_by_wrap_sum(self, n):
        """Every bump read from a scale's offset table is the direct sum over
        the wraps, bit for bit: from two scales coarser than the torus to
        one sample, at positions on, next to and far outside the torus."""
        for period in (0.5, 1.0, 4.0):
            grid = SampleGrid(n, period)
            finest = round(np.log2(n / period))
            for scale in range(-grid.log2_period() - 2, finest + 1):
                count = max(1, round(period * 2.0 ** scale))
                positions = {0, 1, count - 1, count, -1, -count - 3, 3 * count + 2}
                for M, position in itertools.product((2, 4, 10, 20), positions):
                    got = torus_bump_samples(grid, DyadicInterval(scale, position), M)
                    want = torus_bump_direct(n, period, scale, position, M)
                    assert np.array_equal(got, want), (period, scale, position, M)

    def test_interval_shorter_than_one_sample_raises(self):
        grid = SampleGrid(64, 1.0)
        torus_bump_samples(grid, DyadicInterval(6, 5), 4)
        with pytest.raises(ScaleBudgetError, match="shorter than one sample"):
            torus_bump_samples(grid, DyadicInterval(7, 5), 4)

    def test_period_not_a_power_of_two_raises(self):
        with pytest.raises(ValueError, match="power-of-two period"):
            torus_bump_samples(SampleGrid(64, 3.0), DyadicInterval(2, 1), 4)


class TestWavePackets:
    def test_normalization_and_window(self):
        g = SampleGrid(512, 1.0)
        for flavor, lo, hi in (("lacunary", 8, 16), ("non-lacunary", 0, 8)):
            pk = packet(g, DyadicInterval(3, 1), flavor)
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
        coefs = WavePacketFamily(g, family).coefficients(f, "lacunary")
        for iv, c in zip(family, coefs):
            assert abs(c - inner(f, packet(g, iv, "lacunary"))) < 1e-12

    @pytest.mark.parametrize("count", [11, 5])
    def test_synthesize_rejects_weights_of_another_length(self, count):
        g = SampleGrid(64, 1.0)
        family = [DyadicInterval(2, m) for m in range(4)] + [DyadicInterval(3, 0),
                                                             DyadicInterval(3, 5)]
        fam = WavePacketFamily(g, family)
        with pytest.raises(ShapeError, match=rf"\({count},\) for 6 items"):
            fam.synthesize(np.ones(count, dtype=complex), "lacunary")
        assert fam.synthesize(np.ones(6, dtype=complex), "lacunary").samples.any()

    def test_too_coarse_scale_rejected(self):
        g = SampleGrid(256, 1.0)
        assert packet_scales(g).start == 1
        with pytest.raises(ScaleBudgetError):
            packet(g, DyadicInterval(0, 0), "lacunary")

    def test_non_dyadic_period_rejected(self):
        g = SampleGrid(256, 3.0)
        with pytest.raises(ValueError, match="power-of-two period, got 3.0"):
            WavePacketFamily(g, [DyadicInterval(2, 0)])
        assert SampleGrid(256, 0.25).log2_period() == -2


class TestSharedSpectrumPath:
    """Sweeps take one FFT of the input and the cached packet bands; the
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
    def test_coefficients_gather_per_scale_sweeps(self, flavor):
        fam = WavePacketFamily(self.GRID, self.FAMILY)
        f = self._input(11)
        coefs = fam.coefficients(f, flavor)
        kappa = self.GRID.log2_period()
        sweeps = fam.scale_coefficients(f, [3, 2, 4], flavor)
        want = np.array([
            sweeps[iv.scale][iv.position % 2 ** (iv.scale + kappa)] for iv in self.FAMILY
        ])
        assert np.array_equal(coefs, want)

    def test_synthesize_accumulates_repeats_in_list_order(self):
        fam = WavePacketFamily(self.GRID, self.FAMILY)
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
        got = fam.synthesize(w, "non-lacunary")
        want = fam.scale_synthesize(by_scale, "non-lacunary")
        assert np.array_equal(got.samples, want.samples)

    @staticmethod
    def _band_spectrum(g, band, scale, lo, hi):
        """Check a cached band and scatter it into a full spectrum."""
        for arr in band:
            assert not arr.flags.writeable
        m = g.frequencies()
        assert np.array_equal(np.sort(band.support), np.flatnonzero((lo < m) & (m < hi)))
        positions = g.sample_count // dyadic._stride(g, scale)
        assert len(band.support) == positions - 1
        assert len(np.unique(band.support % positions)) == len(band.support)
        spectrum = np.zeros(g.sample_count, dtype=complex)
        spectrum[band.support] = band.values
        return spectrum

    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    def test_direct_packet_matches_cached_spectrum(self, flavor):
        g = self.GRID
        for iv in (DyadicInterval(2, 3), DyadicInterval(4, 37), DyadicInterval(5, 0)):
            band = dyadic._base_packet(g.sample_count, g.period_length, iv.scale, flavor)
            lo, hi = dyadic._block_window(g, iv.scale, {"non-lacunary": 0, "lacunary": 1}[flavor])
            spectrum = self._band_spectrum(g, band, iv.scale, lo, hi)
            shift = iv.position * dyadic._stride(g, iv.scale)
            want = np.roll(np.fft.ifft(spectrum), shift % g.sample_count)
            assert np.abs(packet(g, iv, flavor).samples - want).max() <= 1e-12

    def test_direct_tile_packet_matches_cached_spectrum(self):
        g = self.GRID
        tile = Tritile(DyadicInterval(3, 5), 2)
        for slot in (1, 2, 3):
            band = dyadic._tile_base_packet(g.sample_count, g.period_length, 3, 2, slot)
            lo, hi = dyadic._block_window(g, 3, 2 + slot - 1)
            spectrum = self._band_spectrum(g, band, 3, lo, hi)
            want = np.roll(np.fft.ifft(spectrum), 5 * dyadic._stride(g, 3))
            assert np.abs(tile_packet(g, tile, slot).samples - want).max() <= 1e-12

    @pytest.mark.parametrize("period", [0.25, 1.0, 4.0])
    def test_windows_are_frequency_blocks(self, period):
        """Every window is one frequency block: one position count wide, both
        ends on multiples of it; packets take blocks 0 and 1, tile slot s of
        frequency index l takes block l + s - 1."""
        g = SampleGrid(256, period)
        n, nyq = g.sample_count, g.sample_count // 2
        for j in packet_scales(g):
            positions = len(grid_dyadic_family(g, range(j, j + 1)))
            windows = {}
            for block in range(-3, 4):
                lo, hi = block * positions, (block + 1) * positions
                if lo < -nyq or hi > nyq:
                    with pytest.raises(ScaleBudgetError, match="exceeds Nyquist"):
                        dyadic._block_window(g, j, block)
                else:
                    assert dyadic._block_window(g, j, block) == (lo, hi)
                    windows[block] = (lo, hi)
            for flavor, block in (("non-lacunary", 0), ("lacunary", 1)):
                band = dyadic._base_packet(n, period, j, flavor)
                self._band_spectrum(g, band, j, *windows[block])
            for l, slot in itertools.product(range(-3, 4), (1, 2, 3)):
                if l + slot - 1 in windows:
                    lo, hi = windows[l + slot - 1]
                    band = dyadic._tile_base_packet(n, period, j, l, slot)
                    self._band_spectrum(g, band, j, lo, hi)
                    omega = slot_window(Tritile(DyadicInterval(j, 0), l), slot)
                    assert (omega[0] * period, omega[1] * period) == (lo, hi)

    def test_budget_checks_on_both_routes(self):
        g = SampleGrid(256, 1.0)
        f = GridFunction(g, np.ones(256, dtype=complex))
        fam = WavePacketFamily(g, [])
        top = max_scale(g)
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            packet(g, DyadicInterval(top + 1, 0), "lacunary")
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            fam.scale_coefficients(f, [top + 1], "lacunary")
        # slot 1 of frequency index 0 at scale 7 is [0, 128], inside Nyquist
        # but past the budget the packet route keeps
        fine = Tritile(DyadicInterval(top + 1, 0), 0)
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            tile_packet(g, fine, 1)
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            tile_scale_coefficients(g, f, [(top + 1, 0)], 1)
        with pytest.raises(ScaleBudgetError, match="exceeds budget"):
            fam.scale_synthesize({(top + 1, 0): np.ones(2 ** (top + 1))}, 1)
        # scale 0 on a unit period: the window [0, 1] holds no interior frequency
        coarse = Tritile(DyadicInterval(0, 0), 1)
        with pytest.raises(ScaleBudgetError, match="fewer than two frequencies"):
            tile_packet(g, coarse, 2)
        with pytest.raises(ScaleBudgetError, match="fewer than two frequencies"):
            tile_scale_coefficients(g, f, [(0, 1)], 2)
        # slot 3 of frequency index 4 at scale 5 is [192, 224], past Nyquist 128
        past = Tritile(DyadicInterval(5, 0), 4)
        with pytest.raises(ScaleBudgetError, match="exceeds Nyquist"):
            tile_packet(g, past, 3)
        with pytest.raises(ScaleBudgetError, match="exceeds Nyquist"):
            tile_scale_coefficients(g, f, [(5, 4)], 3)

    @pytest.mark.parametrize("n, period", [(64, 1.0), (512, 4.0), (256, 0.5)])
    def test_packet_scales_are_the_scales_with_packet_windows(self, n, period):
        """packet_scales is exactly where blocks 0 and 1 have windows: the
        budget less its coarsest scale."""
        g = SampleGrid(n, period)
        budget = scale_range(g)

        def accepted(j):
            try:
                for block in (0, 1):
                    dyadic._block_window(g, j, block)
            except ScaleBudgetError:
                return False
            return True

        scales = [j for j in range(budget.start - 3, budget.stop + 3) if accepted(j)]
        assert scales == list(packet_scales(g)) == list(budget[1:])


def _random_function(grid, seed, vector_shape=()):
    rng = np.random.default_rng(seed)
    shape = (grid.sample_count,) + vector_shape
    return GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))


class TestFoldedSweeps:
    """The sweeps fold each packet's band onto its position count; the
    direct packets, built from samples, are the oracle."""

    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    @pytest.mark.parametrize("period", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("shift_n", [0, 3])
    def test_coefficients_match_inner_products(self, flavor, period, shift_n):
        g = SampleGrid(256, period)
        lo_scale = packet_scales(g).start
        family = [
            DyadicInterval(lo_scale, 0), DyadicInterval(lo_scale + 1, 1),
            DyadicInterval(lo_scale + 2, 3), DyadicInterval(max_scale(g), 5),
        ]
        fam = WavePacketFamily(g, family)
        f = _random_function(g, 5)
        if shift_n:
            kappa = g.log2_period()
            sweeps = fam.scale_coefficients(f, [iv.scale for iv in family], flavor, shift_n)
            coefs = [sweeps[iv.scale][iv.position % 2 ** (iv.scale + kappa)] for iv in family]
        else:
            coefs = fam.coefficients(f, flavor)
        for iv, c in zip(family, coefs):
            shifted = DyadicInterval(iv.scale, iv.position + shift_n)
            assert abs(c - inner(f, packet(g, shifted, flavor))) < 1e-12

    @pytest.mark.parametrize("freq_index", [-3, 2])
    def test_tile_coefficients_match_inner_products(self, freq_index):
        g = SampleGrid(256, 1.0)
        f = _random_function(g, 6)
        for slot in (1, 2, 3):
            for j in (3, 4):
                coefs = tile_scale_coefficients(g, f, [(j, freq_index)], slot)[(j, freq_index)]
                for p in (0, 3, 2 ** j - 1):
                    pk = tile_packet(g, Tritile(DyadicInterval(j, p), freq_index), slot)
                    assert abs(coefs[p] - inner(f, pk)) < 1e-12

    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    def test_synthesize_is_adjoint_of_coefficients(self, flavor):
        g = SampleGrid(256, 2.0)
        family = grid_dyadic_family(g, range(0, 5)) + [DyadicInterval(2, 3)]
        fam = WavePacketFamily(g, family)
        rng = np.random.default_rng(7)
        w = rng.normal(size=len(family)) + 1j * rng.normal(size=len(family))
        h = _random_function(g, 8)
        lhs = inner(fam.synthesize(w, flavor), h)
        rhs = np.sum(w * np.conj(fam.coefficients(h, flavor)))
        assert abs(lhs - rhs) < 1e-12

    def test_tile_synthesize_is_adjoint_of_tile_coefficients(self):
        g = SampleGrid(256, 1.0)
        layers = [(3, -3), (3, 2), (4, 0)]
        rng = np.random.default_rng(9)
        h = _random_function(g, 10)
        for slot in (1, 2, 3):
            w = {(j, l): rng.normal(size=2 ** j) + 1j * rng.normal(size=2 ** j)
                 for j, l in layers}
            lhs = inner(WavePacketFamily(g, []).scale_synthesize(w, slot), h)
            coefs = tile_scale_coefficients(g, h, layers, slot)
            rhs = sum(np.sum(w[key] * np.conj(coefs[key])) for key in layers)
            assert abs(lhs - rhs) < 1e-12


def _correlate(grid, f_hat, band, scale, shift_n=0):
    """Per-scale oracle: one inverse FFT of the band folded onto the scale's
    own position count."""
    stride = dyadic._stride(grid, scale)
    positions = grid.sample_count // stride
    folded = np.zeros((positions,) + f_hat.shape[1:], dtype=complex)
    conj = np.conj(band.values).reshape((-1,) + (1,) * (f_hat.ndim - 1))
    folded[band.support % positions] = f_hat[band.support] * conj
    coefs = np.fft.ifft(folded, axis=0) * (grid.spacing / stride)
    return np.roll(coefs, -shift_n, axis=0) if shift_n else coefs


def _synthesize(grid, layers, vector_shape):
    """Per-scale oracle: one FFT of each layer's weights, read at its band
    mod its position count; the layers share one inverse FFT."""
    out_spec = np.zeros((grid.sample_count,) + vector_shape, dtype=complex)
    for weights, band in layers:
        w_hat = np.fft.fft(weights, axis=0)
        values = band.values.reshape((-1,) + (1,) * (w_hat.ndim - 1))
        out_spec[band.support] += w_hat[band.support % len(weights)] * values
    return GridFunction(grid, np.fft.ifft(out_spec, axis=0))


class TestBatchedSweeps:
    """A sweep folds all its layers onto the finest position count and
    takes one short transform each way; the per-scale transforms of
    :func:`_correlate` and :func:`_synthesize` are the oracle.  One layer
    takes the oracle's arithmetic exactly; several differ by round-off,
    bounded at 1e-14 of the peak."""

    TOL = 1e-14

    @staticmethod
    def _sweep_case(n, period, flavor, vshape):
        g = SampleGrid(n, period)
        scales = list(packet_scales(g))
        bands = {j: dyadic._base_packet(n, period, j, flavor) for j in scales}
        f = _random_function(g, n + len(vshape), vshape)
        return g, WavePacketFamily(g, []), scales, bands, f

    @staticmethod
    def _close(got, want, tol):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("vshape", [(), (16,)])
    @pytest.mark.parametrize("period", [1.0, 4.0])
    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    def test_packet_sweeps_match_per_scale_oracle(self, flavor, period, vshape):
        g, fam, scales, bands, f = self._sweep_case(256, period, flavor, vshape)
        f_hat = np.fft.fft(f.samples, axis=0)
        for shift_n in (0, 5):
            sweeps = fam.scale_coefficients(f, scales, flavor, shift_n)
            assert list(sweeps) == scales
            for j in scales:
                want = _correlate(g, f_hat, bands[j], j, shift_n)
                one = fam.scale_coefficients(f, [j], flavor, shift_n)[j]
                assert np.array_equal(one, want)
                self._close(sweeps[j], want, self.TOL)
        # the adjoint, on the sweep's own coefficients
        layers = [(sweeps[j], bands[j]) for j in scales]
        want = _synthesize(g, layers, vshape).samples
        self._close(fam.scale_synthesize(sweeps, flavor).samples, want, self.TOL)
        for j in scales:
            one = fam.scale_synthesize({j: sweeps[j]}, flavor).samples
            assert np.array_equal(one, _synthesize(g, [(sweeps[j], bands[j])], vshape).samples)

    @pytest.mark.parametrize("vshape", [(), (16,)])
    def test_interval_synthesize_matches_per_scale_oracle(self, vshape):
        g = SampleGrid(512, 4.0)
        kappa = g.log2_period()
        family = TestSharedSpectrumPath.FAMILY + [DyadicInterval(-1, 1), DyadicInterval(5, 100)]
        fam = WavePacketFamily(g, family)
        w = _random_function(SampleGrid(16, 1.0), 31, vshape).samples[: len(family)]
        by_scale = {}
        for iv, wi in zip(family, w):
            arr = by_scale.setdefault(
                iv.scale, np.zeros((2 ** (iv.scale + kappa),) + vshape, dtype=complex)
            )
            arr[iv.position % len(arr)] += wi
        layers = [
            (arr, dyadic._base_packet(512, 4.0, j, "non-lacunary"))
            for j, arr in by_scale.items()
        ]
        got = fam.synthesize(w, "non-lacunary").samples
        self._close(got, _synthesize(g, layers, vshape).samples, self.TOL)

    @pytest.mark.parametrize("vshape", [(), (16,)])
    @pytest.mark.parametrize("period", [1.0, 4.0])
    def test_tile_sweeps_match_per_scale_oracle(self, period, vshape):
        g = SampleGrid(512, period)
        n = g.sample_count
        # several frequency indices per scale, negative ones included
        layers = [(j, l) for j in (3, 4, 5) for l in (-2, 0, 1, 3)]
        layers = [(j, l) for j, l in layers if 2 ** j * period * (l + 3) <= n // 2]
        f = _random_function(g, 40, vshape)
        f_hat = np.fft.fft(f.samples, axis=0)
        fam = WavePacketFamily(g, [])
        for slot in (1, 2, 3):
            bands = {key: dyadic._tile_base_packet(n, period, *key, slot) for key in layers}
            sweeps = tile_scale_coefficients(g, f, layers, slot)
            assert list(sweeps) == layers
            for (j, l), band in bands.items():
                want = _correlate(g, f_hat, band, j)
                one = tile_scale_coefficients(g, f, [(j, l)], slot)[(j, l)]
                assert np.array_equal(one, want)
                self._close(sweeps[(j, l)], want, self.TOL)
            want = _synthesize(g, [(sweeps[key], bands[key]) for key in layers], vshape)
            self._close(fam.scale_synthesize(sweeps, slot).samples, want.samples, self.TOL)
            key = layers[-1]
            one = fam.scale_synthesize({key: sweeps[key]}, slot).samples
            assert np.array_equal(one, _synthesize(g, [(sweeps[key], bands[key])], vshape).samples)

    def test_empty_sweeps_keep_shapes(self):
        g = SampleGrid(256, 1.0)
        f = _random_function(g, 41, (2, 3))
        fam = WavePacketFamily(g, [])
        for route in ("lacunary", "non-lacunary", 1, 2, 3):
            assert fam.scale_coefficients(f, [], route) == {}
            assert fam.coefficients(f, route).shape == (0, 2, 3)
            out = fam.scale_synthesize({}, route)
            assert out.samples.shape == (256,) and not out.samples.any()
        assert tile_scale_coefficients(g, f, [], 1) == {}

    def test_plans_are_frozen_and_fold_distinct_rows(self):
        g = SampleGrid(256, 2.0)
        n, period = g.sample_count, g.period_length
        for route, bands in (
            ("lacunary", {j: dyadic._base_packet(n, period, j, "lacunary") for j in (4, 1, 2)}),
            (2, {key: dyadic._tile_base_packet(n, period, *key, 2)
                 for key in ((3, 1), (3, 2), (4, 0))}),
        ):
            plan = dyadic._sweep_plan(n, period, route, tuple(bands))
            for arr in (plan.bins, plan.folded, plan.values):
                assert not arr.flags.writeable
            assert plan.positions == 2 ** (4 + 1)
            # layer i's bins fold to rows bin mod P of column i, no two to one cell
            bins = np.concatenate([b.support for b in bands.values()])
            column = np.repeat(np.arange(len(bands)), [len(b.support) for b in bands.values()])
            assert np.array_equal(plan.bins, bins)
            assert np.array_equal(plan.folded, bins % plan.positions * len(bands) + column)
            assert len(np.unique(plan.folded)) == len(plan.folded)


class TestVectorAxes:
    """Transforms run along axis 0; every component of a vector-valued call
    equals the scalar call bit for bit."""

    GRID = SampleGrid(256, 2.0)
    FAMILY = TestSharedSpectrumPath.FAMILY

    @staticmethod
    def _components(vshape):
        return list(itertools.product(*map(range, vshape)))

    @pytest.mark.parametrize("vshape", [(3,), (2, 3)])
    @pytest.mark.parametrize("flavor", ["lacunary", "non-lacunary"])
    def test_coefficients_and_synthesize(self, vshape, flavor):
        g = self.GRID
        fam = WavePacketFamily(g, self.FAMILY)
        f = _random_function(g, 20, vshape)
        w = _random_function(SampleGrid(8, 1.0), 21, vshape).samples[: len(self.FAMILY)]
        coefs = fam.coefficients(f, flavor)
        out = fam.synthesize(w, flavor)
        assert coefs.shape == (len(self.FAMILY),) + vshape
        assert out.samples.shape == (g.sample_count,) + vshape
        for k in self._components(vshape):
            fk = GridFunction(g, f.samples[(slice(None),) + k])
            assert np.array_equal(coefs[(slice(None),) + k], fam.coefficients(fk, flavor))
            want = fam.synthesize(w[(slice(None),) + k], flavor).samples
            assert np.array_equal(out.samples[(slice(None),) + k], want)

    @pytest.mark.parametrize("vshape", [(3,), (2, 3)])
    def test_tile_sweeps(self, vshape):
        g = self.GRID
        layers = [(2, -1), (3, 1)]
        f = _random_function(g, 22, vshape)
        fam = WavePacketFamily(g, [])
        for slot in (1, 2, 3):
            coefs = tile_scale_coefficients(g, f, layers, slot)
            out = fam.scale_synthesize(coefs, slot)
            for k in self._components(vshape):
                sel = (slice(None),) + k
                fk = GridFunction(g, f.samples[sel])
                scalar = tile_scale_coefficients(g, fk, layers, slot)
                for key in layers:
                    assert np.array_equal(coefs[key][sel], scalar[key])
                want = fam.scale_synthesize(scalar, slot).samples
                assert np.array_equal(out.samples[sel], want)

    def test_empty_family_keeps_vector_shape(self):
        fam = WavePacketFamily(self.GRID, [])
        out = fam.synthesize(np.zeros((0, 2, 3), dtype=complex), "lacunary")
        assert out.samples.shape == (self.GRID.sample_count, 2, 3)
        assert not out.samples.any()


class TestSweepGrid:
    """Every coefficient route sweeps on its own 1d grid: an input on any
    other grid, or on a 2d grid, raises instead of being read as samples of
    the sweep's grid or as a vector axis."""

    GRID = SampleGrid(512, 1.0)

    def _inputs(self):
        rng = np.random.default_rng(31)
        other = SampleGrid(1024, 1.0)
        plane = SampleGrid(512, 1.0, dimension=2)
        return [GridFunction(other, rng.normal(size=1024).astype(complex)),
                GridFunction(SampleGrid(512, 4.0), rng.normal(size=512).astype(complex)),
                GridFunction(plane, rng.normal(size=(512, 512)).astype(complex))]

    def test_packet_sweeps_reject_another_grid(self):
        family = full_tree(DyadicInterval(1, 0), 3) + full_tree(DyadicInterval(1, 1), 3)
        fam = WavePacketFamily(self.GRID, family)
        for flavor in ("non-lacunary", "lacunary"):
            for f in self._inputs():
                with pytest.raises(ShapeError, match="packet sweep"):
                    fam.coefficients(f, flavor)
                with pytest.raises(ShapeError, match="packet sweep"):
                    fam.scale_coefficients(f, [2, 3], flavor)

    def test_tile_sweeps_reject_another_grid(self):
        for f in self._inputs():
            for slot in (1, 2, 3):
                with pytest.raises(ShapeError, match="packet sweep"):
                    tile_scale_coefficients(self.GRID, f, [(3, 1)], slot)

    def test_2d_grid_of_its_own_rejected(self):
        plane = SampleGrid(64, 1.0, dimension=2)
        f = GridFunction(plane, np.ones((64, 64), dtype=complex))
        with pytest.raises(ShapeError, match="packet sweep"):
            WavePacketFamily(plane, [DyadicInterval(2, 0)]).coefficients(f, "lacunary")


class TestTritileFamily:
    """A family of tritiles takes the slot route: per tile, the layer sweep's
    value at the tile's position, and synthesis its adjoint."""

    GRID = SampleGrid(512, 2.0)
    # two scales, several frequency indices, a repeated tile and positions
    # past the position count that wrap
    TILES = [Tritile(DyadicInterval(j, m), l) for j, m, l in (
        (4, 3, 1), (3, 20, -2), (4, 3, 1), (5, 63, 0), (3, 4, -2), (4, 35, 1), (5, 1, 1),
    )]

    def test_coefficients_equal_layer_sweeps_per_tile(self):
        g = self.GRID
        fam = WavePacketFamily(g, self.TILES)
        layers = list(dict.fromkeys((t.spatial.scale, t.freq_index) for t in self.TILES))
        kappa = g.log2_period()
        for vshape in ((), (3,)):
            f = _random_function(g, 50 + len(vshape), vshape)
            for slot in (1, 2, 3):
                sweeps = tile_scale_coefficients(g, f, layers, slot)
                want = np.array([
                    sweeps[(t.spatial.scale, t.freq_index)][
                        t.spatial.position % 2 ** (t.spatial.scale + kappa)]
                    for t in self.TILES
                ])
                assert np.array_equal(fam.coefficients(f, slot), want)

    def test_synthesize_is_adjoint_of_coefficients(self):
        g = self.GRID
        fam = WavePacketFamily(g, self.TILES)
        rng = np.random.default_rng(52)
        h = _random_function(g, 53)
        for slot in (1, 2, 3):
            w = rng.normal(size=len(self.TILES)) + 1j * rng.normal(size=len(self.TILES))
            lhs = inner(fam.synthesize(w, slot), h)
            rhs = np.sum(w * np.conj(fam.coefficients(h, slot)))
            assert abs(lhs - rhs) < 1e-12

    def test_route_must_fit_the_items(self):
        g = self.GRID
        f = _random_function(g, 54)
        intervals = WavePacketFamily(g, [DyadicInterval(3, 1)])
        tiles = WavePacketFamily(g, self.TILES[:1])
        empty = WavePacketFamily(g, [])
        calls = (
            lambda fam, route: fam.coefficients(f, route),
            lambda fam, route: fam.synthesize(np.ones(len(fam.items)), route),
            lambda fam, route: fam.scale_coefficients(f, [], route),
            lambda fam, route: fam.scale_synthesize({}, route),
        )
        refused = [(intervals, slot) for slot in (1, 2, 3)]
        refused += [(tiles, flavor) for flavor in ("lacunary", "non-lacunary")]
        refused += [(fam, route) for fam in (intervals, tiles, empty)
                    for route in ("bht", "modified", 0, 4, None)]
        for call in calls:
            for fam, route in refused:
                with pytest.raises(ValueError, match="does not fit this family"):
                    call(fam, route)
            for route in ("lacunary", "non-lacunary", 1, 2, 3):
                call(empty, route)
            call(intervals, "lacunary")
            call(tiles, 3)

    def test_mixed_items_rejected(self):
        tile = self.TILES[0]
        for items in ([DyadicInterval(2, 1), tile], [tile, DyadicInterval(2, 1)]):
            with pytest.raises(ValueError, match="mix dyadic intervals and tritiles"):
                WavePacketFamily(self.GRID, items)


class TestTritiles:
    def test_count_and_invariants(self):
        g = SampleGrid(256, 1.0)
        tiles = build_rank_one_tiles(g, range(3, 5), range(0, 3))
        assert len(tiles) == (8 + 16) * 3
        for t in tiles[:20]:
            for slot in (1, 2, 3):
                lo, hi = slot_window(t, slot)
                assert (hi - lo) * t.spatial.length == pytest.approx(1.0)

    def test_frequency_blocks_pairwise_disjoint(self):
        # oracle: direct interval-overlap check on 100 random tiles
        g = SampleGrid(512, 1.0)
        tiles = build_rank_one_tiles(g, range(3, 6), range(0, 4))
        rng = np.random.default_rng(7)
        sample = [tiles[i] for i in rng.integers(0, len(tiles), 100)]
        for t in sample:
            windows = [slot_window(t, s) for s in (1, 2, 3)]
            for (a1, b1), (a2, b2) in itertools.combinations(windows, 2):
                assert min(b1, b2) <= max(a1, a2)

    @pytest.mark.parametrize("n, period, scales, freqs", [
        (256, 1.0, range(3, 5), range(0, 3)),
        (512, 4.0, range(-1, 2), range(1, 3)),
    ])
    def test_tiles_in_scale_frequency_position_order(self, n, period, scales, freqs):
        g = SampleGrid(n, period)
        kappa = g.log2_period()
        want = [Tritile(DyadicInterval(j, m), l)
                for j in scales for l in freqs for m in range(2 ** (j + kappa))]
        assert build_rank_one_tiles(g, scales, freqs) == want

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
