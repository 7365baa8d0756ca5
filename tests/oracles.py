"""Direct routes that the tests check the package's swept ones against.

No campaign path runs these: each builds its quantity the plain way (one
packet from samples, one interval's square function, one projection per
scale), so it shares no cache, plan or batching with the route under test.
"""

import numpy as np

from wavetile.analysis import _non_lacunary_values, _square_terms, average_single
from wavetile.dyadic import (
    _PACKET_BLOCKS,
    DyadicInterval,
    Tritile,
    _block_window,
    _slot_block,
    _stride,
    interval_indices,
    packet_profile,
)
from wavetile.grid import GridFunction, SampleGrid, littlewood_paley, scale_range
from wavetile.norms import weak_lp_norm
from wavetile.operators.ranges import _case_member_grid


# ---------------------------------------------------------------------------
# Grid functions and intervals
# ---------------------------------------------------------------------------

def inner(f: GridFunction, g: GridFunction) -> complex:
    """Hermitian pairing <f, g> with the grid measure."""
    return complex(np.sum(f.samples * np.conj(g.samples)) * f.grid.cell_measure)


def disjoint(a: DyadicInterval, b: DyadicInterval) -> bool:
    return not (a.contains(b) or b.contains(a))


def distribution_function(f: GridFunction, lam: float) -> float:
    """Measure of {|f| > lam}."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return float(np.sum(np.abs(f.samples) > lam) * f.grid.cell_measure)


def torus_bump_direct(n, period, scale, position, decay_exponent):
    """The periodized bump of I summed wrap by wrap: for nu = -w..w, the
    line bump (1 + dist/|I|)**-M at the samples shifted by nu periods,
    with the wrap count of ``dyadic.torus_bump_samples``."""
    grid = SampleGrid(n, period)
    x = grid.points()
    length = 2.0 ** (-scale)
    left = (position * length) % period
    ratio = period / length
    # wraps with ((w-1) * period / length) ** -M < 1e-16, capped at 64: this
    # bounds the first dropped term, not the dropped tail
    w = int(np.ceil((1e16) ** (1.0 / decay_exponent) / max(ratio, 1e-300))) + 2
    w = min(max(w, 1), 64)
    total = np.zeros_like(x)
    for nu in range(-w, w + 1):
        xx = x + nu * period
        dist = np.maximum(left - xx, 0.0) + np.maximum(xx - (left + length), 0.0)
        total += (1.0 + dist / length) ** (-decay_exponent)
    total.flags.writeable = False
    return total


# ---------------------------------------------------------------------------
# Packets, one at a time
# ---------------------------------------------------------------------------

def _window_packet(grid: SampleGrid, scale: int, block: int, position: int) -> GridFunction:
    """L2-normalized packet of the interval (scale, position), built from
    samples: the position-0 packet, centered at |I|/2 with the cosine-power
    window on the frequency block as spectrum, moved by whole strides."""
    lo, hi = _block_window(grid, scale, block)
    m = grid.frequencies()
    center_f = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    prof = packet_profile((m - center_f) / half).astype(complex)
    center = 0.5 * 2.0 ** (-scale)
    prof *= np.exp(-2j * np.pi * m * center / grid.period_length)
    samples = np.fft.ifft(prof)
    nrm = np.sqrt(np.sum(np.abs(samples) ** 2) * grid.spacing)
    shift = position * _stride(grid, scale)
    return GridFunction(grid, np.roll(samples / nrm, shift % grid.sample_count))


def packet(grid: SampleGrid, interval: DyadicInterval, flavor: str) -> GridFunction:
    """The packet of I on the route ``flavor``, built directly (no packet cache)."""
    return _window_packet(grid, interval.scale, _PACKET_BLOCKS[flavor], interval.position)


def tile_packet(grid: SampleGrid, tile: Tritile, slot: int) -> GridFunction:
    """L2-normalized wave packet adapted to one tile slot, built directly
    (no packet cache)."""
    block = _slot_block(tile.freq_index, slot)
    return _window_packet(grid, tile.spatial.scale, block, tile.spatial.position)


# ---------------------------------------------------------------------------
# Sizes, one interval at a time
# ---------------------------------------------------------------------------

def local_square_function(
    f: GridFunction,
    family: list[DyadicInterval],
    root: DyadicInterval,
) -> GridFunction:
    """sqrt(sum over I in family, I <= root of |<f, psi_I>|^2 / |I| * 1_I),
    members accumulated in family order.

    Transforms f for this root alone; ``analysis.size_energy`` takes every
    root at once through ``analysis._lacunary_weak_norms`` instead.
    """
    grid = f.grid
    members = [iv for iv in family if root.contains(iv)]
    acc = np.zeros(grid.sample_count)
    for iv, term in zip(members, _square_terms(f, members)):
        acc[interval_indices(grid, iv)] += term
    return GridFunction(grid, np.sqrt(acc).astype(complex))


def size_single(
    f: GridFunction,
    interval: DyadicInterval,
    flavor: str,
    family: list[DyadicInterval] | None = None,
) -> float:
    """The quantity whose supremum over the collection defines the size
    (the modified flavor at the default exponent, unshifted)."""
    if flavor == "modified":
        return average_single(f, interval)
    if flavor == "non-lacunary":
        return float(_non_lacunary_values(f, [interval])[0])
    if flavor == "lacunary":
        if family is None:
            raise ValueError("lacunary size needs the ambient family")
        sq = local_square_function(f, family, interval)
        return weak_lp_norm(sq, 1) / interval.length
    raise ValueError(f"unknown size flavor {flavor!r}")


# ---------------------------------------------------------------------------
# Paraproducts in convolution form
# ---------------------------------------------------------------------------

def classical_paraproduct(
    f: GridFunction,
    g: GridFunction,
    which: str = "qpq",
    scales: range | None = None,
) -> GridFunction:
    """Convolution-form paraproduct with an outer projection.

    ``which`` spells the three projections (f-slot, g-slot, outer):
    "qpq" is sum_k Q_k(Q_k f P_k g), "pqq" is sum_k Q_k(P_k f Q_k g), and
    "qqp" is sum_k P_k(Q_k f Q_k g).  Scales default to the budget minus the
    top scale so the inner products stay below Nyquist.
    """
    if which not in ("qpq", "pqq", "qqp"):
        raise ValueError("which must be 'qpq', 'pqq', or 'qqp'")
    grid = f.grid
    if scales is None:
        full = scale_range(grid)
        scales = range(full.start, full.stop - 1)
    out = np.zeros_like(f.samples)
    slot_f, slot_g, outer = which[0].upper(), which[1].upper(), which[2].upper()
    for k in scales:
        u = littlewood_paley(f, k, slot_f)
        v = littlewood_paley(g, k, slot_g)
        prod = GridFunction(grid, u.samples * v.samples)
        out += littlewood_paley(prod, k, outer).samples
    return GridFunction(grid, out)


# ---------------------------------------------------------------------------
# The range calculator's case table as printed
# ---------------------------------------------------------------------------

def printed_case_member_grid(rho, outer, den):
    """Verdict of the case table exactly as printed, at every point of the
    numerator arrays of ``ranges._case_member_grid``: the package's table
    with the dual-side bound 1/s' < 3/2 - 1/r1 (resp. 1/r2) waived in
    cases (ii) and (iii), where 1/r' >= 0."""
    r1, r2, r3 = rho
    o1, o2, o3 = outer
    big1, big2 = 2 * r1 > den, 2 * r2 > den
    in_range = (o1 < den) & (o2 < den) & (-den < 2 * o3) & (o3 < den)
    side = np.where(big1, ~big2 & (2 * o2 < 3 * den - 2 * r1),
                    big2 & (2 * o1 < 3 * den - 2 * r2))
    return _case_member_grid(rho, outer, den) | (in_range & (r3 >= 0) & side)
