import math
import operator

import numpy as np
import pytest

from wavetile.errors import ScaleBudgetError, ShapeError
from wavetile.grid import (
    GridFunction,
    SampleGrid,
    SpectralMultiplier,
    _band,
    _projection_values,
    band_limit,
    fractional_derivative,
    littlewood_paley,
    max_scale,
    scale_range,
    scales_reaching,
)


def from_callable(grid, fn):
    """Sample a callable of the coordinate on a 1d grid."""
    return GridFunction(grid, np.asarray(fn(grid.points()), dtype=complex))


def band_limited(grid, seed, band):
    rng = np.random.default_rng(seed)
    n = grid.sample_count
    spec = np.zeros(n, dtype=complex)
    mask = np.abs(grid.frequencies()) <= band
    spec[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    return GridFunction(grid, np.fft.ifft(spec) * math.sqrt(n))


class TestGridConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SampleGrid(100)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            SampleGrid(4)

    def test_spacing(self):
        g = SampleGrid(64, 2.0)
        assert g.spacing == 2.0 / 64


class TestArithmetic:
    def test_operands_on_different_grids_raise(self):
        a = GridFunction(SampleGrid(64, 1.0), np.arange(64, dtype=complex))
        for grid in (SampleGrid(64, 4.0), SampleGrid(128, 1.0), SampleGrid(64, 1.0, dimension=2)):
            b = GridFunction(grid, np.ones(grid.spatial_shape, dtype=complex))
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ShapeError, match="different grids"):
                    op(a, b)
                with pytest.raises(ShapeError, match="different grids"):
                    op(b, a)

    def test_multiplier_on_another_grid_raises(self):
        """A multiplier reads its values as frequencies of its own grid, so
        an input on another grid of the same length is refused."""
        mult = SpectralMultiplier(SampleGrid(64, 1.0), np.ones(64))
        for grid in (SampleGrid(64, 4.0), SampleGrid(64, 1.0, dimension=2)):
            f = GridFunction(grid, np.ones(grid.spatial_shape, dtype=complex))
            with pytest.raises(ShapeError, match="different grids"):
                mult.apply(f)


class TestLittlewoodPaley:
    def test_annulus_kills_disjoint_frequency(self):
        g = SampleGrid(64)
        e3 = from_callable(g, lambda x: np.exp(2j * np.pi * 3 * x))
        out = littlewood_paley(e3, 4, "Q")  # annulus [8, 32]
        assert out.norm2() <= 1e-12

    def test_low_pass_passes_interior_frequency(self):
        g = SampleGrid(64)
        e3 = from_callable(g, lambda x: np.exp(2j * np.pi * 3 * x))
        out = littlewood_paley(e3, 3, "P")  # identity on |m| <= 4
        assert (out - e3).norm2() <= 1e-12

    def test_projection_algebra_exact(self):
        # Q_k = P_{k+1} - P_k as multiplier arrays, bitwise
        for k in range(0, 5):
            q = _projection_values(128, 1.0, k, "Q")
            p1 = _projection_values(128, 1.0, k + 1, "P")
            p0 = _projection_values(128, 1.0, k, "P")
            assert np.array_equal(q, p1 - p0)

    def test_scale_budget_enforced(self):
        g = SampleGrid(64)
        f = band_limited(g, 2, 8)
        assert max_scale(g) == 4
        with pytest.raises(ScaleBudgetError):
            littlewood_paley(f, 5, "Q")

    @pytest.mark.parametrize("components", [64, 3])
    def test_vector_axis_rejected(self, components):
        # a negative axis names a vector axis: with as many components as
        # samples it would be filtered silently
        g = SampleGrid(64)
        f = GridFunction(g, np.ones((64, components), dtype=complex))
        for axis in (-1, 1):
            with pytest.raises(ShapeError, match=f"axis {axis} is not a spatial axis"):
                littlewood_paley(f, 2, "Q", axis=axis)

    @pytest.mark.parametrize("grid", [SampleGrid(256), SampleGrid(256, 4.0)])
    def test_band_holds_every_product_of_two_projections(self, grid):
        n, period = grid.sample_count, grid.period_length
        m = grid.frequencies()
        for k in scale_range(grid):
            size, halves = _band(n, period, k)
            assert size == min(n, 8 * period * 2 ** k)
            # the band's fft order, read off the full grid
            bins = np.empty(size, dtype=int)
            for full, part in halves:
                bins[part] = np.arange(n)[full]
            assert np.array_equal(m[bins], np.fft.fftfreq(size, d=1.0 / size))
            # a product of two projections lives on |m| < 4 * period * 2**k
            assert size == n or np.abs(m[bins]).max() == 4 * period * 2 ** k
            for flavor in "PQ":
                full_profile = _projection_values(n, period, k, flavor)
                band_profile = _projection_values(size, period, k, flavor)
                assert np.array_equal(band_profile, full_profile[bins])
                outside = np.ones(n, dtype=bool)
                outside[bins] = False
                assert not full_profile[outside].any()

    def test_scale_range_spans_torus_to_budget(self):
        g = SampleGrid(256, 4.0)
        ks = list(scale_range(g))
        assert ks[0] == -2 and ks[-1] == max_scale(g)


class TestFractionalDerivative:
    def test_eigenfunction(self):
        g = SampleGrid(64)
        e3 = from_callable(g, lambda x: np.exp(2j * np.pi * 3 * x))
        out = fractional_derivative(e3, 0.5, 1)
        assert (out - math.sqrt(3) * e3).norm2() < 1e-12

    def test_constant_annihilated(self):
        g = SampleGrid(64)
        c = GridFunction(g, np.full(64, 2.0, dtype=complex))
        assert fractional_derivative(c, 1.0, 1).norm2() == 0.0

    def test_sine_fixed_by_first_derivative_multiplier(self):
        g = SampleGrid(64)
        s = from_callable(g, lambda x: np.sin(2 * np.pi * x))
        out = fractional_derivative(s, 1.0, 1)
        assert (out - s).norm2() < 1e-12

    def test_semigroup_on_band_limited(self):
        g = SampleGrid(256)
        f = band_limited(g, 3, 50)
        ab = fractional_derivative(fractional_derivative(f, 0.7, 1), 0.55, 1)
        direct = fractional_derivative(f, 1.25, 1)
        assert (ab - direct).norm2() <= 1e-10 * direct.norm2()

    def test_alpha_zero_is_identity(self):
        g = SampleGrid(64)
        f = band_limited(g, 4, 10)
        assert (fractional_derivative(f, 0.0, 1) - f).norm2() < 1e-14


def test_band_limit_detection():
    g = SampleGrid(128)
    f = band_limited(g, 5, 17)
    assert band_limit(g, np.fft.fft(f.samples)) == 17


def test_band_limit_reads_2d_and_vector_spectra():
    g = SampleGrid(64, dimension=2)
    spec = np.zeros((64, 64, 3), dtype=complex)
    spec[5, -9, 2] = 1.0
    spec[-20, 3, 2] = 0.9e-12  # below 1e-12 of its component's peak
    assert band_limit(g, spec) == 9
    # each component is read against its own peak, however small
    spec[1, 14, 0] = 1e-20
    assert band_limit(g, spec) == 14
    assert band_limit(g, np.zeros((64, 64))) == 0


class TestScalesReaching:
    GRID = SampleGrid(128)

    @pytest.mark.parametrize("band, want", [
        (8, range(0, 4)),     # Q_4 vanishes on |m| <= 2**3
        (9, range(0, 5)),
        (64, range(0, 6)),    # n/2 reaches every scale of the budget
        (0, range(0, 1)),     # the first scale always stays
    ])
    def test_cut_of_the_budget(self, band, want):
        assert scale_range(self.GRID) == range(0, 6)
        assert scales_reaching(self.GRID, scale_range(self.GRID), band) == want

    def test_period_and_shorter_ranges(self):
        g = SampleGrid(512, 4.0)
        assert scales_reaching(g, scale_range(g), 32) == range(-2, 4)
        assert scales_reaching(g, range(-2, 2), 512) == range(-2, 2)

    def test_dropped_annuli_vanish_on_the_band(self):
        for g in (SampleGrid(128), SampleGrid(512, 4.0)):
            for band in (3, 8, 17, 40):
                ks = scale_range(g)
                kept = scales_reaching(g, ks, band)
                m = np.abs(g.frequencies()) <= band
                assert kept[0] == ks[0]
                for k in ks[1:]:
                    q = _projection_values(g.sample_count, g.period_length, k, "Q")
                    assert (k in kept) == bool(np.any(q[m] != 0))
