import itertools
from fractions import Fraction

import numpy as np
import pytest

from wavetile.bench import generate_trial
from wavetile.dyadic import DyadicInterval, build_rank_one_tiles, grid_dyadic_family
from wavetile.errors import ExponentConstraintError, ShapeError
from wavetile.grid import GridFunction, SampleGrid, fractional_derivative
from wavetile.norms import INF, MixedNormSpec, mixed_norm
from wavetile.operators import (
    BHTModelSpec,
    LeibnizExponents,
    ParaproductSpec,
    bht_model,
    discretized_paraproduct,
    leibniz_sides,
    shifted_paraproduct,
    vector_valued_apply,
)


def band_limited(grid, seed, band, vshape=()):
    rng = np.random.default_rng(seed)
    n = grid.sample_count
    shape = grid.spatial_shape + tuple(vshape)
    spec = np.zeros(shape, dtype=complex)
    mask = np.abs(grid.frequencies()) <= band
    if grid.dimension == 1:
        idx = np.flatnonzero(mask)
        spec[idx] = rng.normal(size=(len(idx),) + tuple(vshape)) + 1j * rng.normal(
            size=(len(idx),) + tuple(vshape)
        )
    else:
        m2 = np.argwhere(mask[:, None] & mask[None, :])
        spec[m2[:, 0], m2[:, 1]] = rng.normal(
            size=(len(m2),) + tuple(vshape)
        ) + 1j * rng.normal(size=(len(m2),) + tuple(vshape))
    out = np.fft.ifftn(spec, axes=tuple(range(grid.dimension)))
    return GridFunction(grid, out * n ** (grid.dimension / 2))


GRID = SampleGrid(256, 1.0)
FAMILY = grid_dyadic_family(GRID, range(2, 6))
SPEC = ParaproductSpec.constant(GRID, FAMILY)


def op(f, g):
    return discretized_paraproduct(SPEC, f, g)


class TestVectorValuedApply:
    def test_single_component_reduces_to_scalar(self):
        f = band_limited(GRID, 0, 40, (1,))
        g = band_limited(GRID, 1, 40, (1,))
        out, (n_out, n_f, n_g) = vector_valued_apply(
            op, f, g,
            MixedNormSpec((4, Fraction(3, 2))),
            MixedNormSpec((4, Fraction(3, 2))),
            MixedNormSpec((2, Fraction(3, 4))),
        )
        scalar = op(
            GridFunction(GRID, f.samples[:, 0]), GridFunction(GRID, g.samples[:, 0])
        )
        assert np.array_equal(out.samples[:, 0], scalar.samples)
        from wavetile.norms import lp_norm

        assert n_f == pytest.approx(lp_norm(GridFunction(GRID, f.samples[:, 0]), 4))

    def test_shape_mismatch(self):
        f = band_limited(GRID, 2, 40, (2,))
        g = band_limited(GRID, 3, 40, (3,))
        with pytest.raises(ShapeError):
            vector_valued_apply(op, f, g, MixedNormSpec((4, 2)),
                                MixedNormSpec((4, 2)), MixedNormSpec((2, 1)))

    def test_depth2_norms_match_brute_force(self):
        f = band_limited(GRID, 4, 40, (2, 3))
        g = band_limited(GRID, 5, 40, (2, 3))
        out, (n_out, n_f, n_g) = vector_valued_apply(
            op, f, g,
            MixedNormSpec((4, INF, 2)),
            MixedNormSpec((4, 2, INF)),
            MixedNormSpec((2, 2, 2)),
        )
        # brute-force iterated sums for the f-norm (inf over axis 1 last... axis2 first)
        t = np.abs(f.samples)
        inner = np.sqrt(np.sum(t ** 2, axis=2))  # L2 over the last axis
        mid = inner.max(axis=1)  # sup over the middle axis
        want = (np.sum(mid ** 4) * GRID.spacing) ** 0.25
        assert n_f == pytest.approx(want, rel=1e-12)
        # componentwise application
        scalar = op(
            GridFunction(GRID, f.samples[:, 1, 2]),
            GridFunction(GRID, g.samples[:, 1, 2]),
        )
        assert np.abs(out.samples[:, 1, 2] - scalar.samples).max() < 1e-14


    def test_operator_that_is_not_componentwise_rejected(self):
        f = band_limited(GRID, 6, 40, (3,))
        g = band_limited(GRID, 7, 40, (3,))

        def summed(fc, gc):
            return GridFunction(GRID, (fc.samples * gc.samples).sum(axis=-1))

        with pytest.raises(ShapeError, match="componentwise"):
            vector_valued_apply(summed, f, g, MixedNormSpec((4, 2)),
                                MixedNormSpec((4, 2)), MixedNormSpec((2, 1)))


# a shuffled family with a repeated interval, spread over four scales
VECTOR_FAMILY = [FAMILY[i] for i in np.random.default_rng(8).permutation(len(FAMILY))][:40]
VECTOR_FAMILY += [VECTOR_FAMILY[3], DyadicInterval(3, 13)]
VECTOR_SPEC = ParaproductSpec(
    GRID, VECTOR_FAMILY, np.random.default_rng(9).uniform(0.3, 1.0, len(VECTOR_FAMILY))
)
VECTOR_TILES = build_rank_one_tiles(GRID, range(3, 5), range(-2, 2))
VECTOR_TILES += VECTOR_TILES[5:9]

VECTOR_OPS = {
    "discretized_paraproduct": lambda f, g: discretized_paraproduct(VECTOR_SPEC, f, g),
    "bht_model": lambda f, g: bht_model(BHTModelSpec(GRID, VECTOR_TILES), f, g),
    "shifted_paraproduct": lambda f, g: shifted_paraproduct(2, f, g),
}


class TestVectorAxesOperators:
    """The operators take trailing vector axes; each output component is the
    scalar call on that component, bit for bit."""

    @pytest.mark.parametrize("vshape", [(4,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(VECTOR_OPS))
    def test_components_equal_scalar_calls(self, name, vshape):
        op = VECTOR_OPS[name]
        f = band_limited(GRID, 40, 60, vshape)
        g = band_limited(GRID, 41, 60, vshape)
        out = op(f, g)
        assert out.samples.shape == f.samples.shape
        for k in itertools.product(*map(range, vshape)):
            sel = (slice(None),) + k
            scalar = op(GridFunction(GRID, f.samples[sel]), GridFunction(GRID, g.samples[sel]))
            assert np.array_equal(out.samples[sel], scalar.samples)

    def test_empty_collections_return_zeros_of_input_shape(self):
        f = band_limited(GRID, 42, 40, (2, 3))
        empty = ParaproductSpec(GRID, [], np.zeros(0))
        for out in (
            bht_model(BHTModelSpec(GRID, []), f, f),
            discretized_paraproduct(empty, f, f),
            shifted_paraproduct(0, f, f, scales=range(0)),
        ):
            assert out.samples.shape == f.samples.shape
            assert not out.samples.any()


def leibniz_route(alpha, beta, exps, f, g):
    """Both sides with every derivative field built from scratch."""

    def d(h, a, b):
        out = h
        if a > 0:
            out = fractional_derivative(out, a, axis=1)
        if b > 0:
            out = fractional_derivative(out, b, axis=2)
        return out

    product = GridFunction(f.grid, f.samples * g.samples)
    lhs = mixed_norm(d(product, alpha, beta), MixedNormSpec((exps.s1, exps.s2)))
    splits = (
        ((alpha, beta), (0.0, 0.0)),
        ((0.0, 0.0), (alpha, beta)),
        ((alpha, 0.0), (0.0, beta)),
        ((0.0, beta), (alpha, 0.0)),
    )
    terms = []
    for ((af, bf), (ag, bg)), (px, py, qx, qy) in zip(splits, exps.pairs):
        nf = mixed_norm(d(f, af, bf), MixedNormSpec((px, py)))
        ng = mixed_norm(d(g, ag, bg), MixedNormSpec((qx, qy)))
        terms.append(nf * ng)
    return lhs, tuple(terms)


ROUTE_GRID = SampleGrid(64, 1.0, dimension=2)
ROUTE_EXPS = LeibnizExponents(2, 3, (
    (4, 6, 4, 6), (3, 4, 6, 12), (INF, 6, 2, 6), (6, INF, 3, 3),
))


def assert_matches_route(alpha, beta, f, g):
    """leibniz_sides on its band route against every field built from
    scratch, side by side; the two routes round differently."""
    lhs, terms = leibniz_sides(alpha, beta, ROUTE_EXPS, f, g)
    want_lhs, want_terms = leibniz_route(alpha, beta, ROUTE_EXPS, f, g)
    assert lhs == pytest.approx(want_lhs, rel=1e-12)
    assert terms == pytest.approx(want_terms, rel=1e-12)


class TestLeibnizSides:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 1.5), (0.0, 0.75)])
    def test_equals_field_by_field_route(self, alpha, beta):
        f, g = band_limited(ROUTE_GRID, 40, 6), band_limited(ROUTE_GRID, 41, 6)
        assert_matches_route(alpha, beta, f, g)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.75), (0.5, 1.5)])
    @pytest.mark.parametrize("case", ["white-noise", "complex", "real-part", "imaginary-part",
                                      "constant", "constant-second", "zero", "zero-second"])
    def test_more_inputs_match_route(self, case, alpha, beta):
        """White noise, whose band reaches Nyquist, so nothing is pruned; a
        complex input and its real and purely imaginary parts; constant and
        zero inputs, whose band is 0, in either slot."""
        f, g = band_limited(ROUTE_GRID, 42, 6), band_limited(ROUTE_GRID, 43, 6)
        noise = np.random.default_rng(12).standard_normal((2, 64, 64))
        flat, zero = (GridFunction(ROUTE_GRID, np.full((64, 64), v)) for v in (2.5, 0.0))
        pair = {
            "white-noise": [GridFunction(ROUTE_GRID, h) for h in noise],
            "complex": (f, g),
            "real-part": (GridFunction(ROUTE_GRID, f.samples.real), g),
            "imaginary-part": (GridFunction(ROUTE_GRID, 1j * f.samples.imag), g),
            "constant": (flat, g),
            "constant-second": (g, flat),
            "zero": (zero, g),
            "zero-second": (g, zero),
        }[case]
        assert_matches_route(alpha, beta, *pair)

    def test_fft_work_below_half_of_sixteen_full_transforms(self, monkeypatch):
        """One 256**2, band-8 call transforms at most 8 n**2 input points:
        the single-axis route made 16 full-size transforms."""
        n = 256
        g2 = SampleGrid(n, 1.0, dimension=2)
        f, g = (generate_trial("band_limited", 1, {"grid": g2, "band": 8}, role=role)
                for role in (None, "g"))
        points = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                     "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
            def counted(a, *args, _fn=getattr(np.fft, name), **kwargs):
                points.append(np.asarray(a).size)
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        leibniz_sides(1.0, 1.0, LeibnizExponents.symmetric(2, 2), f, g)
        assert 0 < sum(points) <= 16 * n * n / 2

    def test_constant_second_factor_first_term_dominates(self):
        g2 = SampleGrid(128, 1.0, dimension=2)
        f = band_limited(g2, 6, 8)
        ones = GridFunction(g2, np.ones((128, 128), dtype=complex))
        exps = LeibnizExponents(2, 2, (
            (2, 2, INF, INF),
            (INF, INF, 2, 2),
            (2, 2, INF, INF),
            (2, 2, INF, INF),
        ))
        lhs, terms = leibniz_sides(1.0, 1.0, exps, f, ones)
        assert lhs / terms[0] <= 1 + 1e-6

    def test_ratio_bounded_on_random_pairs(self):
        g2 = SampleGrid(128, 1.0, dimension=2)
        exps = LeibnizExponents.symmetric(2, 2)
        for seed in range(5):
            f = band_limited(g2, 10 + seed, 8)
            g = band_limited(g2, 20 + seed, 8)
            lhs, terms = leibniz_sides(1.0, 1.0, exps, f, g)
            assert lhs <= sum(terms)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_ratio_invariant_under_x_dilation(self, k):
        """f(x) -> f(kx mod 1) scales every side by k^alpha and keeps each
        norm, so the ratio holds to round-off while the band stays resolved."""
        n = 256
        g2 = SampleGrid(n, 1.0, dimension=2)
        exps = LeibnizExponents.symmetric(2, 2)
        f, g = band_limited(g2, 50, n // 64), band_limited(g2, 51, n // 64)
        lhs, terms = leibniz_sides(1, 1, exps, f, g)
        dilate = (np.arange(n) * k) % n
        fk = GridFunction(g2, f.samples[dilate])
        gk = GridFunction(g2, g.samples[dilate])
        lhs_k, terms_k = leibniz_sides(1, 1, exps, fk, gk)
        assert lhs_k / sum(terms_k) == pytest.approx(lhs / sum(terms), rel=1e-12)

    def test_vector_axes_rejected(self):
        f = band_limited(ROUTE_GRID, 45, 6, (2,))
        with pytest.raises(ShapeError, match="scalar"):
            leibniz_sides(1.0, 1.0, ROUTE_EXPS, f, f)

    def test_constraint_violation_named(self):
        g2 = SampleGrid(128, 1.0, dimension=2)
        f = band_limited(g2, 30, 8)
        exps = LeibnizExponents.symmetric(2, Fraction(2, 3))
        with pytest.raises(ExponentConstraintError) as err:
            leibniz_sides(1.0, 0.25, exps, f, f)
        assert "s2" in err.value.constraint

    def test_s1_constraint(self):
        g2 = SampleGrid(128, 1.0, dimension=2)
        f = band_limited(g2, 31, 8)
        exps = LeibnizExponents.symmetric(Fraction(3, 4), 2)
        with pytest.raises(ExponentConstraintError) as err:
            leibniz_sides(0.25, 1.0, exps, f, f)
        assert err.value.constraint == "s1 > 1/(1+alpha)"

    def test_hoelder_validation(self):
        with pytest.raises(ValueError):
            LeibnizExponents(2, 2, ((4, 4, 4, 4),) * 3)
        with pytest.raises(ValueError):
            LeibnizExponents(2, 2, ((3, 4, 4, 4),) * 4)

    def test_zero_factor_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent 0 must be positive"):
            LeibnizExponents(2, 2, ((0, 4, 4, 4),) * 4)

    def test_infinite_target_exponent(self):
        f, g = band_limited(ROUTE_GRID, 60, 6), band_limited(ROUTE_GRID, 61, 6)
        exps = LeibnizExponents.symmetric(INF, 2)
        lhs, terms = leibniz_sides(1.0, 1.0, exps, f, g)
        want_lhs, want_terms = leibniz_route(1.0, 1.0, exps, f, g)
        assert lhs == pytest.approx(want_lhs, rel=1e-12)
        assert terms == pytest.approx(want_terms, rel=1e-12)
        with pytest.raises(ExponentConstraintError) as err:
            leibniz_sides(1.0, 0.25, LeibnizExponents.symmetric(INF, Fraction(2, 3)), f, f)
        assert err.value.constraint == "s2 > max(1/(1+alpha), 1/(1+beta))"
