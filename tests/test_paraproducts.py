import itertools
import tracemalloc

import numpy as np
import pytest

from wavetile.dyadic import (
    DyadicInterval,
    WavePacketFamily,
    build_rank_one_tiles,
    grid_dyadic_family,
    packet_scales,
)
from wavetile.errors import AliasingError, ShapeError
from wavetile.grid import (
    GridFunction,
    SampleGrid,
    band_limit,
    littlewood_paley,
    scale_range,
    scales_reaching,
)
from wavetile.norms import MeasurableSet
from wavetile.operators import (
    LocalizationSpec,
    ParaproductSpec,
    alpha_symbol_coefficients,
    bht_model,
    discretized_paraproduct,
    localized_paraproduct,
    paraproducts,
    shifted_paraproduct,
    telescoping_decomposition,
    tensor_paraproduct,
    trilinear_form,
)

from oracles import classical_paraproduct, inner, packet


def band_limited(grid, seed, band):
    rng = np.random.default_rng(seed)
    n = grid.sample_count
    spec = np.zeros((n,) * grid.dimension, dtype=complex)
    mask = np.abs(grid.frequencies()) <= band
    if grid.dimension == 1:
        spec[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    else:
        m2 = mask[:, None] & mask[None, :]
        spec[m2] = rng.normal(size=m2.sum()) + 1j * rng.normal(size=m2.sum())
    out = np.fft.ifftn(spec, axes=tuple(range(grid.dimension)))
    return GridFunction(grid, out * n ** (grid.dimension / 2))


GRID = SampleGrid(512, 1.0)


def random_spec(family, seed):
    """A spec on GRID over ``family`` with seeded random coefficients."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.2, 1.0, len(family)) * np.exp(
        2j * np.pi * rng.random(len(family))
    )
    return ParaproductSpec(GRID, family, coeffs)


def default_spec(seed=0, scales=range(2, 7)):
    """An interval spec: the paraproduct Pi."""
    return random_spec(grid_dyadic_family(GRID, scales), seed)


def tile_spec(seed=0):
    """A tile spec over two scales and two frequency indices: a weighted
    BHT model."""
    return random_spec(build_rank_one_tiles(GRID, range(3, 5), range(0, 2)), seed)


class TestDiscretizedParaproduct:
    def test_zero_coefficients(self):
        spec = ParaproductSpec(GRID, [DyadicInterval(3, 1)], [0.0])
        out = discretized_paraproduct(spec, band_limited(GRID, 1, 50), band_limited(GRID, 2, 50))
        assert out.norm2() == 0.0

    def test_single_interval_matches_inner_products(self):
        f, g = band_limited(GRID, 3, 60), band_limited(GRID, 4, 60)
        # one interval; then two scales, a repeated interval, and position
        # 9 >= 2**3 that wraps onto position 1 of the torus
        cases = [
            ([DyadicInterval(3, 2)], [0.7 + 0.2j]),
            ([DyadicInterval(3, 2), DyadicInterval(5, 7), DyadicInterval(3, 2),
              DyadicInterval(3, 9)],
             [0.7 + 0.2j, -0.4 + 0.9j, 0.3 - 0.5j, 1.1 + 0.1j]),
        ]
        for family, coeffs in cases:
            spec = ParaproductSpec(GRID, family, np.array(coeffs))
            out = discretized_paraproduct(spec, f, g)
            expected = sum(
                c * iv.length ** -0.5
                * inner(f, packet(GRID, iv, "non-lacunary"))
                * inner(g, packet(GRID, iv, "lacunary"))
                * packet(GRID, iv, "lacunary").samples
                for iv, c in zip(family, coeffs)
            )
            assert np.abs(out.samples - expected).max() < 1e-12

    def test_bilinearity(self):
        f, g = band_limited(GRID, 5, 60), band_limited(GRID, 6, 60)
        h = band_limited(GRID, 7, 60)
        for spec in (default_spec(), tile_spec()):
            base = discretized_paraproduct(spec, f, g)
            scaled = discretized_paraproduct(spec, 2.0 * f, g)
            assert np.array_equal(scaled.samples, 2.0 * base.samples)
            summed = discretized_paraproduct(spec, f + h, g)
            split = discretized_paraproduct(spec, f, g) + discretized_paraproduct(spec, h, g)
            scale = max(np.abs(summed.samples).max(), 1e-30)
            assert np.abs(summed.samples - split.samples).max() <= 1e-12 * scale

    def test_output_spectrum_in_slot3_windows(self):
        spec = default_spec(scales=range(3, 6))
        f, g = band_limited(GRID, 8, 60), band_limited(GRID, 9, 60)
        out = discretized_paraproduct(spec, f, g)
        m = GRID.frequencies()
        allowed = np.zeros(512, dtype=bool)
        for j in range(3, 6):
            allowed |= (m >= 2 ** j) & (m <= 2 ** (j + 1))
        sp = np.abs(np.fft.fft(out.samples))
        assert sp[~allowed].max() <= 1e-10 * sp.max()


class TestTrilinearForm:
    def test_orthogonal_third_slot(self):
        spec = default_spec(scales=range(4, 6))
        f, g = band_limited(GRID, 10, 60), band_limited(GRID, 11, 60)
        # h supported at frequencies no lacunary window reaches
        h = GridFunction(GRID, np.exp(2j * np.pi * 3 * GRID.points()))
        assert abs(trilinear_form(spec, f, g, h)) < 1e-12

    def test_pairs_with_operator_output(self):
        spec = default_spec(1)
        rng = np.random.default_rng(12)
        for seed in range(50):
            f = band_limited(GRID, 100 + seed, 60)
            g = band_limited(GRID, 200 + seed, 60)
            h = band_limited(GRID, 300 + seed, 60)
            lam = trilinear_form(spec, f, g, h)
            pairing = inner(discretized_paraproduct(spec, f, g), h)
            assert abs(lam - pairing) <= 1e-10 * max(abs(pairing), 1e-20)


def telescope_route(f, h):
    """The telescoping terms summed projection by projection: the
    Littlewood-Paley projection along the first axis, then along the second.

    Returns the 3**d pairing terms (first axis major) and the sum of every
    term with a coarse-block factor.
    """
    dim = f.grid.dimension
    ks = scale_range(f.grid)
    pairings = [(("Q", "P"), ks), (("P", "Q"), ks), (("Q", "Q"), ks)]
    coarse = (("P", "P"), [ks.start])

    def term(axis_pieces):
        acc = np.zeros_like(f.samples)
        for scales in itertools.product(*(s for _, s in axis_pieces)):
            u, v = f, h
            for axis, (((a, b), _), k) in enumerate(zip(axis_pieces, scales)):
                u = littlewood_paley(u, k, a, axis=axis)
                v = littlewood_paley(v, k, b, axis=axis)
            acc += u.samples * v.samples
        return acc

    terms = [term(c) for c in itertools.product(pairings, repeat=dim)]
    remainder = sum(
        term(c) for c in itertools.product(pairings + [coarse], repeat=dim) if coarse in c
    )
    return terms + [remainder]


class TestTelescoping:
    def test_1d_identity(self):
        g = SampleGrid(4096, 1.0)
        f, h = band_limited(g, 1, 512), band_limited(g, 2, 512)
        parts = telescoping_decomposition(f, h)
        assert len(parts) == 4
        total = parts[0] + parts[1] + parts[2] + parts[3]
        product = GridFunction(g, f.samples * h.samples)
        assert (total - product).norm2() <= 1e-10 * product.norm2()

    def test_constant_first_argument(self):
        g = SampleGrid(1024, 1.0)
        one = GridFunction(g, np.ones(1024, dtype=complex))
        h = band_limited(g, 3, 100)
        t1, t2, t3, rem = telescoping_decomposition(one, h)
        assert t1.norm2() == 0.0 and t3.norm2() == 0.0
        assert (t2 + rem - h).norm2() <= 1e-10 * h.norm2()

    def test_2d_identity(self):
        g = SampleGrid(256, 1.0, dimension=2)
        f, h = band_limited(g, 4, 32), band_limited(g, 5, 32)
        parts = telescoping_decomposition(f, h)
        assert len(parts) == 10
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        product = GridFunction(g, f.samples * h.samples)
        assert (total - product).norm2() <= 1e-9 * product.norm2()

    @pytest.mark.parametrize("grid", [
        SampleGrid(512, 1.0), SampleGrid(64, 1.0, dimension=2),
        SampleGrid(512, 4.0), SampleGrid(64, 4.0, dimension=2),
    ])
    def test_each_term_matches_projection_route(self, grid):
        band = grid.sample_count // 5
        f, h = band_limited(grid, 9, band), band_limited(grid, 10, band)
        parts = telescoping_decomposition(f, h)
        want = telescope_route(f, h)
        assert len(parts) == len(want) == 3 ** grid.dimension + 1
        for got, ref in zip(parts, want):
            assert np.linalg.norm(got.samples - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_memory_peak_bounded(self):
        # one spectrum per input and one set of projections per scale pair;
        # caching every projection of both inputs would exceed the bound
        g = SampleGrid(256, 1.0, dimension=2)
        f, h = band_limited(g, 4, 32), band_limited(g, 5, 32)
        tracemalloc.start()
        try:
            telescoping_decomposition(f, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_band_limit_enforced(self):
        g = SampleGrid(256, 1.0)
        wide = band_limited(g, 6, 100)  # beyond N/4
        with pytest.raises(AliasingError):
            telescoping_decomposition(wide, wide)

    def test_vector_valued_inputs_rejected(self):
        g = SampleGrid(64, 1.0)
        f = band_limited(g, 11, 8)
        stacked = GridFunction(g, np.stack([f.samples] * 64, axis=1))
        with pytest.raises(ShapeError):
            telescoping_decomposition(stacked, stacked)

    def test_fattened_projection_reproduces_summands(self):
        g = SampleGrid(512, 1.0)
        f, h = band_limited(g, 7, 32), band_limited(g, 8, 32)
        for k in range(2, 5):
            qf = littlewood_paley(f, k, "Q")
            ph = littlewood_paley(h, k, "P")
            term = GridFunction(g, qf.samples * ph.samples)
            fat = littlewood_paley(term, k + 3, "P")
            assert (fat - term).norm2() <= 1e-12 * term.norm2()


class TestLocalized:
    def test_full_sets_equal_restricted_operator(self):
        spec = default_spec(2)
        f, g = band_limited(GRID, 13, 60), band_limited(GRID, 14, 60)
        ones = MeasurableSet(GridFunction(GRID, np.ones(512, dtype=complex)))
        root = DyadicInterval(0, 0)
        loc = LocalizationSpec(root, ones, ones, ones)
        out = localized_paraproduct(spec, loc, f, g)
        plain = discretized_paraproduct(spec.restricted(root), f, g)
        assert np.array_equal(out.samples, plain.samples)

    def test_empty_third_set(self):
        spec = default_spec(3)
        f, g = band_limited(GRID, 15, 60), band_limited(GRID, 16, 60)
        ones = MeasurableSet(GridFunction(GRID, np.ones(512, dtype=complex)))
        empty = MeasurableSet(GridFunction(GRID, np.zeros(512, dtype=complex)))
        loc = LocalizationSpec(DyadicInterval(0, 0), ones, ones, empty)
        assert localized_paraproduct(spec, loc, f, g).norm2() == 0.0


class TestShiftedParaproduct:
    def test_zero_input(self):
        zero = GridFunction(GRID, np.zeros(512, dtype=complex))
        assert shifted_paraproduct(4, zero, band_limited(GRID, 17, 30)).norm2() == 0.0

    def test_matches_direct_sum_when_shifted(self):
        # n = 0 is the unshifted paraproduct; n = 3 moves both pairings
        f, g = band_limited(GRID, 22, 60), band_limited(GRID, 23, 60)
        for n in (0, 3):
            got = shifted_paraproduct(n, f, g)
            want = sum(
                iv.length ** -1.0
                * inner(f, packet(GRID, DyadicInterval(iv.scale, iv.position + n), "lacunary"))
                * inner(g, packet(GRID, DyadicInterval(iv.scale, iv.position + n), "lacunary"))
                * packet(GRID, iv, "non-lacunary").samples
                for iv in grid_dyadic_family(GRID, packet_scales(GRID))
            )
            assert np.abs(got.samples - want).max() <= 1e-12 * np.abs(want).max()

    def test_shift_wraps_on_torus(self):
        f, g = band_limited(GRID, 20, 60), band_limited(GRID, 21, 60)
        # 128 = 2**(max_scale + kappa) positions at the finest scale, a
        # multiple of every coarser scale's count, so every scale wraps
        big = shifted_paraproduct(7, f, g)
        wrapped = shifted_paraproduct(7 + 128, f, g)
        assert (big - wrapped).norm2() <= 1e-12 * big.norm2()


class _ModelSumGridChecks:
    """A model sum reads its inputs on the spec's 1d grid, over intervals or
    tritiles alike; an input or a cutoff set on another grid raises.
    Subclasses name the spec kind and its model sum."""

    # an empty family reads its inputs on the spec's grid like any other
    EMPTY = ParaproductSpec(SampleGrid(256, 1.0), [], [])

    def test_inputs_on_another_grid_raise(self):
        spec = self.make_spec()
        f = band_limited(GRID, 1, 40)
        big = band_limited(SampleGrid(1024, 1.0), 2, 40)
        for args in ((big, big), (f, big), (big, f)):
            with pytest.raises(ShapeError):
                self.model_sum(spec, *args)
        for args in ((big, f, f), (f, big, f), (f, f, big)):
            with pytest.raises(ShapeError):
                trilinear_form(spec, *args)

    def test_empty_family_paraproduct_checks_the_grid(self):
        f = band_limited(SampleGrid(256, 4.0), 4, 20)
        with pytest.raises(ShapeError, match="packet sweep"):
            self.model_sum(self.EMPTY, f, f)

    def test_cutoff_sets_on_another_grid_raise(self):
        spec = self.make_spec(2)
        f, g = band_limited(GRID, 6, 40), band_limited(GRID, 7, 40)
        ones = MeasurableSet(GridFunction(SampleGrid(512, 4.0), np.ones(512, dtype=complex)))
        loc = LocalizationSpec(DyadicInterval(0, 0), ones, ones, ones)
        with pytest.raises(ShapeError, match="different grids"):
            localized_paraproduct(spec, loc, f, g)


class TestGridChecks(_ModelSumGridChecks):
    """The model-sum checks over an interval spec, and the shifted
    paraproduct, which reads its inputs on the first input's 1d grid."""

    make_spec = staticmethod(default_spec)
    model_sum = staticmethod(discretized_paraproduct)

    def test_2d_inputs_raise(self):
        plane = SampleGrid(64, 1.0, dimension=2)
        f = band_limited(plane, 3, 8)
        with pytest.raises(ShapeError):
            shifted_paraproduct(0, f, f)

    def test_empty_family_trilinear_form_checks_the_grid(self):
        f = band_limited(SampleGrid(256, 4.0), 5, 20)
        with pytest.raises(ShapeError, match="packet sweep"):
            trilinear_form(self.EMPTY, f, f, f)

    def test_shifted_inputs_on_another_grid_raise(self):
        f = band_limited(SampleGrid(256, 1.0), 8, 20)
        g = band_limited(SampleGrid(256, 4.0), 9, 20)
        with pytest.raises(ShapeError, match="different grids"):
            shifted_paraproduct(0, f, g)


class TestGridChecksOnTiles(_ModelSumGridChecks):
    """The model-sum checks over a tile spec, whose model sum is BHT_P."""

    make_spec = staticmethod(tile_spec)
    model_sum = staticmethod(bht_model)


@pytest.mark.parametrize("op, inputs, make_spec", [
    pytest.param(discretized_paraproduct, 2, default_spec, id="discretized_paraproduct-2"),
    pytest.param(trilinear_form, 3, default_spec, id="trilinear_form-3"),
    pytest.param(discretized_paraproduct, 2, tile_spec, id="discretized_paraproduct-2-tiles"),
    pytest.param(trilinear_form, 3, tile_spec, id="trilinear_form-3-tiles"),
    pytest.param(bht_model, 2, tile_spec, id="bht_model-2-tiles"),
])
def test_one_packet_family_per_call(op, inputs, make_spec, monkeypatch):
    built = []

    class Counted(WavePacketFamily):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(paraproducts, "WavePacketFamily", Counted)
    spec = make_spec(2)
    op(spec, *(band_limited(GRID, 8 + k, 40) for k in range(inputs)))
    assert built == [(spec.grid, spec.family)]


def _vector_input(seed, components):
    rng = np.random.default_rng(seed)
    return GridFunction(GRID, rng.normal(size=(512, components)).astype(complex))


_ALL_OF_GRID = MeasurableSet(GridFunction(GRID, np.ones(512, dtype=complex)))

# Each model sum as op(spec, f, g, h); the bilinear ones ignore h.
MODEL_SUMS = {
    "discretized_paraproduct": lambda spec, f, g, h: discretized_paraproduct(spec, f, g),
    "localized_paraproduct": lambda spec, f, g, h: localized_paraproduct(
        spec, LocalizationSpec(DyadicInterval(0, 0), *[_ALL_OF_GRID] * 3), f, g),
    "bht_model": lambda spec, f, g, h: bht_model(spec, f, g),
    "trilinear_form": trilinear_form,
}


@pytest.mark.parametrize("make_spec", [default_spec, tile_spec], ids=["intervals", "tiles"])
@pytest.mark.parametrize("name", sorted(MODEL_SUMS))
def test_mismatched_vector_axes_raise(name, make_spec):
    spec = make_spec(3)
    two, three = _vector_input(30, 2), _vector_input(31, 3)
    cases = [(two, three, two)] + ([(two, two, three)] if name == "trilinear_form" else [])
    for f, g, h in cases:
        with pytest.raises(ShapeError, match=r"vector axes differ: \(2,\) vs \(3,\)"):
            MODEL_SUMS[name](spec, f, g, h)


def test_shifted_paraproduct_mismatched_vector_axes_raise():
    with pytest.raises(ShapeError, match=r"vector axes differ: \(2,\) vs \(3,\)"):
        shifted_paraproduct(0, _vector_input(30, 2), _vector_input(31, 3))


class TestAlphaSymbolCoefficients:
    def test_coefficient_decay(self):
        for alpha in (0.25, 0.5, 1.0):
            table = alpha_symbol_coefficients(alpha)
            ns = np.arange(-256, 257)
            weighted = np.abs(table) * (1 + np.abs(ns)) ** (1 + alpha)
            assert np.isfinite(weighted.max())
            assert weighted.max() <= 4.0


def tensor_route(f, h):
    """The tensor paraproduct projection by projection: P_k f and Q_k h
    along the second axis, the convolution paraproduct sum_j Q_j(Q_j . P_j .)
    along the first, and Q_k of the result along the second."""
    full = scale_range(f.grid)
    ks = range(full.start, full.stop - 1)
    out = np.zeros_like(f.samples)
    for k in ks:
        u = littlewood_paley(f, k, "P", axis=1)
        v = littlewood_paley(h, k, "Q", axis=1)
        for j in ks:
            w = GridFunction(f.grid, littlewood_paley(u, j, "Q").samples
                             * littlewood_paley(v, j, "P").samples)
            out += littlewood_paley(littlewood_paley(w, j, "Q"), k, "Q", axis=1).samples
    return out


class TestTensorParaproduct:
    @pytest.mark.parametrize("grid, vector_shape", [
        (SampleGrid(128, 1.0, dimension=2), ()),
        (SampleGrid(128, 4.0, dimension=2), ()),
        (SampleGrid(64, 1.0, dimension=2), (3,)),
    ])
    def test_matches_projection_route_on_broadband_inputs(self, grid, vector_shape):
        # inputs reach every frequency, so each scale pair's band must hold
        # its whole product
        rng = np.random.default_rng(34)
        shape = grid.spatial_shape + vector_shape
        f, h = (GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
                for _ in range(2))
        got = tensor_paraproduct(f, h).samples
        want = tensor_route(f, h)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for c in np.ndindex(vector_shape):
            fc = GridFunction(grid, f.samples[(..., *c)])
            hc = GridFunction(grid, h.samples[(..., *c)])
            one = tensor_paraproduct(fc, hc).samples
            assert np.linalg.norm(got[(..., *c)] - one) <= 1e-12 * np.linalg.norm(one)

    def test_zero(self):
        g = SampleGrid(128, 1.0, dimension=2)
        zero = GridFunction(g, np.zeros((128, 128), dtype=complex))
        assert tensor_paraproduct(zero, band_limited(g, 27, 12)).norm2() == 0.0

    def test_separable_composition(self):
        g2 = SampleGrid(128, 1.0, dimension=2)
        g1 = SampleGrid(128, 1.0)
        a, b = band_limited(g1, 28, 12), band_limited(g1, 29, 12)
        c, d = band_limited(g1, 30, 12), band_limited(g1, 31, 12)
        f = GridFunction(g2, np.outer(a.samples, b.samples))
        h = GridFunction(g2, np.outer(c.samples, d.samples))
        out = tensor_paraproduct(f, h)
        full = scale_range(g2)
        ks = range(full.start, full.stop - 1)
        px = classical_paraproduct(a, c, "qpq", scales=ks)
        py = classical_paraproduct(b, d, "pqq", scales=ks)
        want = GridFunction(g2, np.outer(px.samples, py.samples))
        assert (out - want).norm2() <= 1e-10 * want.norm2()

    def test_needs_2d(self):
        with pytest.raises(ValueError):
            tensor_paraproduct(band_limited(GRID, 32, 10), band_limited(GRID, 33, 10))


def stacked(grid, seed, band, components):
    """``components`` band-limited draws along one trailing vector axis."""
    return GridFunction(grid, np.stack(
        [band_limited(grid, seed + c, band).samples for c in range(components)], axis=-1))


class TestBandBoundedScales:
    """Both operators stop at the last scale whose annulus reaches their
    inputs' band; the projection routes sum the whole budget."""

    @pytest.mark.parametrize("grid", [
        SampleGrid(512, 1.0), SampleGrid(64, 1.0, dimension=2),
        SampleGrid(512, 4.0), SampleGrid(64, 4.0, dimension=2),
    ])
    def test_telescoping_matches_full_range_route(self, grid):
        band = grid.sample_count // 16
        full = scale_range(grid)
        assert scales_reaching(grid, full, band).stop < full.stop
        f, h = band_limited(grid, 50, band), band_limited(grid, 51, band)
        parts = telescoping_decomposition(f, h)
        want = telescope_route(f, h)
        for got, ref in zip(parts, want):
            assert np.linalg.norm(got.samples - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("grid, components", [
        (SampleGrid(128, 1.0, dimension=2), 0),
        (SampleGrid(128, 4.0, dimension=2), 0),
        (SampleGrid(64, 1.0, dimension=2), 3),
    ])
    def test_tensor_matches_full_range_route(self, grid, components):
        band = grid.sample_count // 16
        full = scale_range(grid)
        assert scales_reaching(grid, full, band).stop < full.stop - 1
        if components:
            f, h = stacked(grid, 60, band, components), stacked(grid, 70, band, components)
        else:
            f, h = band_limited(grid, 60, band), band_limited(grid, 70, band)
        got = tensor_paraproduct(f, h).samples
        want = tensor_route(f, h)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_tensor_component_read_against_its_own_peak(self):
        # a faint broadband component keeps the scales its band reaches
        grid = SampleGrid(64, 1.0, dimension=2)
        f = stacked(grid, 80, 4, 2)
        h = stacked(grid, 90, 4, 2)
        f.samples[..., 1] = 1e-14 * band_limited(grid, 82, 16).samples
        got = tensor_paraproduct(f, h).samples[..., 1]
        want = tensor_route(GridFunction(grid, f.samples[..., 1]),
                            GridFunction(grid, h.samples[..., 1]))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_tail_just_under_the_threshold(self):
        # a tail at |m| = 100 of 0.9e-12 of the spectral peak is not read as
        # band, so scales 6 and 7, which reach it, are dropped: the parts
        # lose its round-off-sized contribution and nothing more
        grid = SampleGrid(512, 1.0)
        f, h = band_limited(grid, 52, 32), band_limited(grid, 53, 32)
        spec = np.fft.fft(f.samples)
        spec[[100, -100]] = 0.9e-12 * np.abs(spec).max()
        f = GridFunction(grid, np.fft.ifft(spec))
        assert band_limit(grid, np.fft.fft(f.samples)) == 32
        assert scales_reaching(grid, scale_range(grid), 32) == range(0, 6)
        parts = telescoping_decomposition(f, h)
        want = telescope_route(f, h)
        deviation = max(np.linalg.norm(got.samples - ref) / np.linalg.norm(ref)
                        for got, ref in zip(parts, want))
        assert deviation <= 1e-11
        total = sum(p.samples for p in parts)
        product = f.samples * h.samples
        assert np.linalg.norm(total - product) <= 1e-11 * np.linalg.norm(product)


class TestBilinearityAcrossOperators:
    """Additive bilinearity at 1e-12, scalar multiples exact."""

    def check(self, apply):
        g = SampleGrid(256, 1.0)
        f1 = band_limited(g, 40, 20)
        f2 = band_limited(g, 41, 20)
        h = band_limited(g, 42, 20)
        summed = apply(f1 + f2, h)
        split = apply(f1, h) + apply(f2, h)
        scale = max(np.abs(summed.samples).max(), 1e-30)
        assert np.abs(summed.samples - split.samples).max() <= 1e-12 * scale
        doubled = apply(2.0 * f1, h)
        assert np.array_equal(doubled.samples, (2.0 * apply(f1, h)).samples)

    def test_shifted_paraproduct(self):
        self.check(lambda a, b: shifted_paraproduct(2, a, b))

    def test_tensor_paraproduct(self):
        g = SampleGrid(64, 1.0, dimension=2)
        f1, f2, h = (band_limited(g, s, 6) for s in (43, 44, 45))
        summed = tensor_paraproduct(f1 + f2, h)
        split = tensor_paraproduct(f1, h) + tensor_paraproduct(f2, h)
        scale = max(np.abs(summed.samples).max(), 1e-30)
        assert np.abs(summed.samples - split.samples).max() <= 1e-12 * scale


def test_paraproduct_spec_rejects_2d_grid():
    # over intervals or tritiles alike, at construction
    g2 = SampleGrid(32, 1.0, dimension=2)
    tiles = build_rank_one_tiles(SampleGrid(32, 1.0), range(2, 3), range(0, 1))
    for family in ([DyadicInterval(2, 0)], tiles):
        with pytest.raises(ValueError, match="model sums live on 1d grids"):
            ParaproductSpec.constant(g2, family)
