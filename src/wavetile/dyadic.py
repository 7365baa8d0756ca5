"""Exact dyadic interval geometry, torus bumps, wave packets, tritiles.

A dyadic interval is the pair ``(scale, position) = (j, m)`` standing for
``[m * 2**-j, (m+1) * 2**-j)``.  All containment and disjointness queries are
integer arithmetic, so they are exact at any depth.  Scales may be negative
(intervals longer than one unit).

Wave packets are built in the spectral domain from a finitely smooth
cosine-power window (see :func:`packet_profile`), translated to the interval
center by a phase, and L2-renormalized.  A lacunary packet has spectrum
inside ``[1/|I|, 2/|I|]`` (cycles per unit), a non-lacunary packet inside
``[0, 1/|I|]``; the supports are exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ScaleBudgetError, ShapeError
from .grid import GridFunction, SampleGrid, _check_scale, scale_range

__all__ = [
    "DyadicInterval",
    "WavePacketFamily",
    "Tritile",
    "collection_plus",
    "build_rank_one_tiles",
    "grid_dyadic_family",
    "interval_indices",
    "packet_profile",
    "packet_scales",
    "torus_bump_samples",
]


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The half-open interval [position * 2**-scale, (position+1) * 2**-scale)."""

    scale: int
    position: int

    @property
    def length(self) -> float:
        return 2.0 ** (-self.scale)

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.scale - 1, self.position >> 1)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.scale + 1, 2 * self.position),
            DyadicInterval(self.scale + 1, 2 * self.position + 1),
        )

    def contains(self, other: "DyadicInterval") -> bool:
        """Exact test other <= self (as sets)."""
        d = other.scale - self.scale
        if d < 0:
            return False
        return (other.position >> d) == self.position


def _tripled_contains(i0: DyadicInterval, j: DyadicInterval) -> bool:
    """Exact test J <= 3*I0 (the concentric tripled interval)."""
    # 3*I0 = [(p0-1)*2**-j0, (p0+2)*2**-j0); compare at the finer scale.
    if j.scale >= i0.scale:
        d = j.scale - i0.scale
        lo = (i0.position - 1) << d
        hi = (i0.position + 2) << d
        return lo <= j.position and j.position + 1 <= hi
    d = i0.scale - j.scale
    # scale j coarser: endpoints of J at scale i0: position * 2**d
    lo_j = j.position << d
    hi_j = (j.position + 1) << d
    return (i0.position - 1) <= lo_j and hi_j <= (i0.position + 2)


def collection_plus(
    family: list[DyadicInterval], bound: DyadicInterval
) -> list[DyadicInterval]:
    """All dyadic J inside the tripled interval 3*bound that contain at
    least one member, each member's ancestors in turn (finest first).

    A chain stops at the first ancestor already collected, since every
    ancestor above it is collected too.
    """
    seen: dict[DyadicInterval, None] = {}
    for iv in family:
        j = iv
        while j not in seen and _tripled_contains(bound, j):
            seen[j] = None
            j = j.parent()
    return list(seen)


def grid_dyadic_family(
    grid: SampleGrid,
    scales: range | None = None,
) -> list[DyadicInterval]:
    """The budgeted dyadic intervals tiling the torus [0, period).

    Scales run from the single whole-torus interval down to intervals
    spanning four samples (the same budget as the frequency projections),
    ``scale_range(grid)``; ``scales`` picks some of them.
    """
    full = scale_range(grid)
    out = []
    for j in full if scales is None else scales:
        if j not in full:
            raise ScaleBudgetError(f"scale {j} outside grid budget")
        for m in range(2 ** (j - full.start)):
            out.append(DyadicInterval(j, m))
    return out


def interval_indices(grid: SampleGrid, interval: DyadicInterval) -> np.ndarray:
    """Sample indices covered by an interval on the torus (wrapping allowed), each once."""
    stride = _stride(grid, interval.scale)
    start = interval.position * stride
    return (start + np.arange(min(stride, grid.sample_count))) % grid.sample_count


def torus_bump_samples(
    grid: SampleGrid,
    interval: DyadicInterval,
    decay_exponent: int,
) -> np.ndarray:
    """Samples of the periodized adapted bump (1 + dist(x, I)/|I|)**-M of I
    on the torus.

    Distance is measured on the torus by summing the line bump over w
    period wraps on each side, with w the fewest that put the first dropped
    term below 1e-16, and at most 64.  That bounds one term, not the dropped
    tail, and not relative to the bump's small values far from I: against a
    20,000-wrap sum on 512 points the relative error reaches 1.7e-6 at
    M = 4 (the whole torus, where the 64-wrap cap binds) and 2.4e-9 at
    M = 10 (fine intervals, 1/64 of the period long).

    The bump depends on I's position only through the sample offset of its
    left end, so every interval of one scale reads the same table of wrap
    sums (:func:`_bump_offsets`), a slice of it starting at that offset.
    The period must be a power of two and I at least one sample long; then
    each term is the power of an exactly computed base, and the samples
    are the wrap-by-wrap sum's to the bit.
    """
    return _torus_bump_cached(
        grid.sample_count, grid.period_length, interval.scale,
        interval.position, decay_exponent,
    )


@lru_cache(maxsize=4096)
def _torus_bump_cached(n, period, scale, position, decay_exponent):
    grid = SampleGrid(n, period)
    grid.log2_period()  # raises on a period that is not a power of two
    offset = position * _stride(grid, scale) % n
    return _bump_offsets(n, period, scale, decay_exponent)[n - 1 - offset:2 * n - 1 - offset]


@lru_cache(maxsize=128)
def _bump_offsets(n, period, scale, decay_exponent):
    """The torus bump of a scale's intervals at every signed sample offset
    r from the left end, -n < r < n, as entry r + n - 1.

    Entry r sums t(dist(r + nu*n, [0, s])) over the wraps nu = -w..w in
    that order from zero, s the interval's stride in samples, and
    t(d) = (1 + d*dx/|I|)**-M is read from one array of powers over every
    distance the wraps reach.
    """
    grid = SampleGrid(n, period)
    length = 2.0 ** (-scale)
    ratio = period / length
    # wraps with ((w-1) * period / length) ** -M < 1e-16, capped at 64: this
    # bounds the first dropped term, not the dropped tail
    w = int(np.ceil((1e16) ** (1.0 / decay_exponent) / max(ratio, 1e-300))) + 2
    w = min(max(w, 1), 64)
    s = _stride(grid, scale)
    powers = (1.0 + np.arange((w + 1) * n) * grid.spacing / length) ** (-decay_exponent)
    r = np.arange(1 - n, n)
    table = np.zeros(2 * n - 1)
    for nu in range(-w, w + 1):
        q = r + nu * n
        table += powers[np.maximum(-q, 0) + np.maximum(q - s, 0)]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Wave packets
# ---------------------------------------------------------------------------

PACKET_SMOOTHNESS = 8


def packet_profile(u) -> np.ndarray:
    """Cosine-power spectral window cos(pi u / 2)**order on [-1, 1], with
    order ``PACKET_SMOOTHNESS``.

    Finitely smooth (C^(order-1)) at the edges, so the packet it generates
    has algebraic spatial tails of matching order; an infinitely smooth
    window sampled at the handful of frequencies inside a dyadic block
    decays far more slowly than its continuum version, which would break
    the adapted-decay axiom at desk scale.
    """
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    return np.cos(np.pi * u / 2.0) ** PACKET_SMOOTHNESS


def packet_scales(grid: SampleGrid) -> range:
    """The packet budget: ``scale_range(grid)`` less its coarsest scale.

    A window has length 2**j * period in index units and the profile
    vanishes at its endpoints, so a window holding an interior frequency
    needs 2**j * period >= 2.
    """
    return scale_range(grid)[1:]


def _block_window(grid: SampleGrid, scale: int, block: int) -> tuple[float, float]:
    """Frequency window [block, block + 1] * 2**scale * period (index units).

    The window is one position count wide with both ends on multiples of
    it.  Windows outside :func:`packet_scales` or leaving the grid's
    frequencies raise.
    """
    if scale < packet_scales(grid).start:
        raise ScaleBudgetError(
            f"window at scale {scale} spans fewer than two frequencies"
        )
    _check_scale(grid, scale)
    width = 2.0 ** scale * grid.period_length
    lo, hi = block * width, (block + 1) * width
    nyq = grid.sample_count // 2
    if lo < -nyq or hi > nyq:
        raise ScaleBudgetError(
            f"frequency block {block} at scale {scale}: window [{lo}, {hi}] "
            f"exceeds Nyquist +-{nyq}"
        )
    return lo, hi


# Frequency block of each packet flavor: [0, 1/|I|] and [1/|I|, 2/|I|].
_PACKET_BLOCKS = {"non-lacunary": 0, "lacunary": 1}


def _stride(grid: SampleGrid, scale: int) -> int:
    """Samples per interval at ``scale``: the step between packet translates.

    Raises unless the intervals are a whole number of samples long.
    """
    stride = 2.0 ** (-scale) / grid.spacing
    if stride < 1:
        raise ScaleBudgetError(f"intervals at scale {scale} are shorter than one sample")
    if not stride.is_integer():
        raise ScaleBudgetError(f"intervals at scale {scale} do not align with the sample grid")
    return int(stride)


class _Band(NamedTuple):
    """A position-0 packet's spectrum on its open frequency window.

    ``support`` holds the FFT bins of the integer frequencies strictly inside
    the window and ``values`` the spectrum there.  Outside the open window
    the clipped profile is cos(pi/2)**order (about 1e-130 of its peak), far
    below round-off, so those bins are dropped.
    """

    support: np.ndarray
    values: np.ndarray


def _window_band(grid: SampleGrid, scale: int, block: int) -> _Band:
    """The frozen band of the position-0 packet of one frequency block: the
    packet centered at |I|/2, with the cosine-power window on the block as
    spectrum.

    Values are the cosine-power profile times the centering phase, divided
    by the L2 norm that Parseval gives for the inverse transform.  The block
    window is one position count wide with ends on multiples of it, so the
    support is distinct modulo the position count.
    """
    lo, hi = _block_window(grid, scale, block)
    n = grid.sample_count
    freqs = np.arange(int(lo) + 1, int(hi))
    center_f = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = packet_profile((freqs - center_f) / half).astype(complex)
    center = 0.5 * 2.0 ** (-scale)
    values *= np.exp(-2j * np.pi * freqs * center / grid.period_length)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.spacing / n)
    band = _Band(freqs % n, values)
    for arr in band:
        arr.flags.writeable = False
    return band


def _column(values: np.ndarray, ndim: int) -> np.ndarray:
    """``values`` shaped to broadcast along axis 0 of an ``ndim``-array."""
    return values.reshape(values.shape + (1,) * (ndim - 1))


@lru_cache(maxsize=2048)
def _base_packet(n, period, scale, flavor):
    """Band of the packet for position 0 of the given scale."""
    return _window_band(SampleGrid(n, period), scale, _PACKET_BLOCKS[flavor])


class _SweepPlan(NamedTuple):
    """The layers of one sweep folded onto a single short transform.

    ``positions`` is P, the finest layer's position count, which every
    coarser count divides; layer i's positions sit every ``steps[i]`` rows
    of a length-P transform.  ``bins`` and ``values`` are the layers' bands
    one after another in layer order, and ``folded`` is each bin's flat
    index into a ``(P, layers)`` array: row bin mod P, column its layer.
    """

    positions: int
    steps: tuple[int, ...]
    bins: np.ndarray
    folded: np.ndarray
    values: np.ndarray


@lru_cache(maxsize=512)
def _sweep_plan(n, period, route, layers) -> _SweepPlan:
    """The frozen plan of a sweep over a nonempty tuple of layers.

    ``route`` is a packet flavor, whose layers are scales, or a tile slot,
    whose layers are (scale, freq_index) pairs.
    """
    grid = SampleGrid(n, period)
    if isinstance(route, str):
        scales = layers
        bands = [_base_packet(n, period, j, route) for j in layers]
    else:
        scales = [j for j, _ in layers]
        bands = [_tile_base_packet(n, period, j, l, route) for j, l in layers]
    strides = [_stride(grid, j) for j in scales]
    finest = min(strides)
    positions = n // finest
    plan = _SweepPlan(
        positions,
        tuple(s // finest for s in strides),
        np.concatenate([b.support for b in bands]),
        np.concatenate([
            b.support % positions * len(layers) + i for i, b in enumerate(bands)
        ]),
        np.concatenate([b.values for b in bands]),
    )
    for arr in (plan.bins, plan.folded, plan.values):
        arr.flags.writeable = False
    return plan


def _sweep(
    grid: SampleGrid, f: GridFunction, route, layers: Iterable, shift_n: int = 0
) -> dict:
    """{layer: <f, base translated to position p + shift_n> for every
    position p} over the ``layers`` of a :func:`_sweep_plan`.

    Sampling the circular correlation with the position-0 packet every
    stride folds its spectrum onto the residues mod the position count.
    Folding every layer mod the finest count P instead and reading layer i
    every P/P_i rows gives its length-P_i transform times P/P_i, so one
    inverse FFT of length P serves the sweep, and every layer takes the
    finest layer's factor spacing / stride.
    """
    if f.grid != grid or grid.dimension != 1:
        raise ShapeError(f"a packet sweep reads functions on its 1d grid {grid}, got {f.grid}")
    layers = tuple(layers)
    if not layers:
        return {}
    n = grid.sample_count
    plan = _sweep_plan(n, grid.period_length, route, layers)
    f_hat = np.fft.fft(f.samples, axis=0)
    vshape = f_hat.shape[1:]
    folded = np.zeros((plan.positions * len(layers),) + vshape, dtype=complex)
    folded[plan.folded] = f_hat[plan.bins] * _column(np.conj(plan.values), f_hat.ndim)
    coefs = np.fft.ifft(folded.reshape((plan.positions, len(layers)) + vshape), axis=0)
    factor = grid.spacing / (n // plan.positions)
    out = {}
    for i, (layer, step) in enumerate(zip(layers, plan.steps)):
        c = coefs[::step, i] * factor
        out[layer] = np.roll(c, -shift_n, axis=0) if shift_n else c
    return out


def _sweep_synthesize(grid: SampleGrid, route, weights: dict, vshape: tuple) -> GridFunction:
    """The adjoint of :func:`_sweep`: the sum over layers and positions p of
    ``weights[layer][p]`` (shape ``(P_i, *vshape)``) times the layer's base
    translated to position p.

    The length-P FFT of weights placed every P/P_i rows is their length-P_i
    FFT repeated, so reading it at the bins mod P gives the spectrum of the
    strided weights on each band.  Bands of different layers overlap, so
    they add unbuffered, in layer order; the layers share one inverse FFT.
    """
    if not weights:
        return GridFunction(grid, np.zeros((grid.sample_count,) + vshape, dtype=complex))
    plan = _sweep_plan(grid.sample_count, grid.period_length, route, tuple(weights))
    stacked = np.zeros((plan.positions, len(weights)) + vshape, dtype=complex)
    for i, (w, step) in enumerate(zip(weights.values(), plan.steps)):
        stacked[::step, i] = w
    w_hat = np.fft.fft(stacked, axis=0).reshape((-1,) + vshape)
    out_spec = np.zeros((grid.sample_count,) + vshape, dtype=complex)
    np.add.at(out_spec, plan.bins, w_hat[plan.folded] * _column(plan.values, w_hat.ndim))
    return GridFunction(grid, np.fft.ifft(out_spec, axis=0))


# Tile slots: phi1, phi2 and phi3 of a tritile.
_TILE_SLOTS = (1, 2, 3)


def _spatial_intervals(items: list) -> tuple[bool, list[DyadicInterval]]:
    """Whether ``items`` are tritiles, and each item's spatial interval; a
    mix of dyadic intervals and tritiles raises."""
    tiles = [isinstance(item, Tritile) for item in items]
    if any(tiles) and not all(tiles):
        raise ValueError("items mix dyadic intervals and tritiles: give one kind")
    return any(tiles), [t.spatial for t in items] if any(tiles) else items


class WavePacketFamily:
    """L2-normalized packets indexed by dyadic intervals or by tritiles.

    Each call names its route: a packet flavor over intervals, or a tile
    slot 1, 2 or 3 over tritiles; an empty family takes either.  A layer is
    a scale for intervals and a (scale, freq_index) pair for tritiles, and
    its packets are exact translates of each other.  A sweep folds all its
    layers onto the finest layer's position count, so it costs one FFT of
    the input and one short transform, and synthesis one short transform
    and one inverse FFT.  Inputs and weights may carry trailing vector
    axes: transforms run along axis 0 and the rest broadcast.
    """

    def __init__(self, grid: SampleGrid, items: list):
        self.grid = grid
        self.items = list(items)
        kappa = grid.log2_period()
        tiles, spatial = _spatial_intervals(self.items)
        flavors = tuple(_PACKET_BLOCKS)
        self._routes = _TILE_SLOTS if tiles else flavors if self.items else flavors + _TILE_SLOTS
        keys = ([(iv.scale, t.freq_index) for iv, t in zip(spatial, self.items)] if tiles
                else [iv.scale for iv in spatial])
        # layers in order of first appearance, and each item's layer
        columns: dict = {}
        col = np.array([columns.setdefault(k, len(columns)) for k in keys], dtype=np.int64)
        self._layers = list(columns)
        scales = np.array([k[0] for k in self._layers] if tiles else self._layers, dtype=np.int64)
        # a scale past the packet budget gets one position here; its sweep raises
        counts = 2 ** np.maximum(scales + kappa, 0)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        positions = np.array([iv.position for iv in spatial], dtype=np.int64)
        # each item's row among the layers' positions laid end to end
        self._rows = self._offsets[col] + positions % counts[col]

    def _route(self, route):
        if route not in self._routes:
            raise ValueError(f"route {route!r} does not fit this family: one of {self._routes}")
        return route

    def scale_coefficients(self, f: GridFunction, layers: Iterable, route, shift_n: int = 0):
        """{layer: <f, packet at position p + shift_n> for every position p}
        over the given layers; f is transformed once for all of them."""
        return _sweep(self.grid, f, self._route(route), layers, shift_n)

    def coefficients(self, f: GridFunction, route) -> np.ndarray:
        """<f, packet> per item, aligned with the item list (axis 0)."""
        by_layer = self.scale_coefficients(f, self._layers, route)
        # the layers' positions end to end; the empty head keeps an empty
        # family's vector shape
        head = np.empty((0,) + f.vector_shape, dtype=complex)
        return np.concatenate([head, *by_layer.values()])[self._rows]

    def scale_synthesize(self, weights: dict, route) -> GridFunction:
        """sum over layers and positions p of weights[layer][p] times the
        packet at position p.

        The adjoint of :meth:`scale_coefficients`: ``weights[layer]`` has one
        entry per position of that layer along axis 0.
        """
        vshape = next(iter(weights.values())).shape[1:] if weights else ()
        return _sweep_synthesize(self.grid, self._route(route), weights, vshape)

    def synthesize(self, weights: np.ndarray, route) -> GridFunction:
        """sum over items of weight times packet.

        The adjoint of :meth:`coefficients`; repeated items add up, in list
        order.  ``weights`` has shape ``(len(items), *vector_shape)``.
        """
        weights = np.asarray(weights)
        if weights.shape[:1] != (len(self.items),):
            raise ShapeError(f"weights of shape {weights.shape} for {len(self.items)} items")
        vshape = weights.shape[1:]
        laid = np.zeros((self._offsets[-1],) + vshape, dtype=complex)
        # unbuffered: in list order
        np.add.at(laid, self._rows, weights)
        by_layer = dict(zip(self._layers, np.split(laid, self._offsets[1:-1])))
        return _sweep_synthesize(self.grid, self._route(route), by_layer, vshape)


# ---------------------------------------------------------------------------
# Tritiles
# ---------------------------------------------------------------------------

def _slot_block(freq_index: int, slot: int) -> int:
    """Frequency block of tile slot s = 1, 2, 3: freq_index + s - 1."""
    if slot not in _TILE_SLOTS:
        raise ValueError("slot must be 1, 2, or 3")
    return freq_index + slot - 1


@dataclass(frozen=True)
class Tritile:
    """Three frequency tiles over one spatial interval, one degree of freedom.

    Slot s = 1, 2, 3 is the frequency block ``freq_index + s - 1`` of the
    spatial interval's scale (:func:`_slot_block`): the consecutive windows
    ``[(freq_index + s - 1) * 2**j, (freq_index + s) * 2**j)``, where
    ``2**-j`` is the spatial length.
    """

    spatial: DyadicInterval
    freq_index: int


def build_rank_one_tiles(
    grid: SampleGrid,
    scales: range,
    freq_range: range,
) -> list[Tritile]:
    """One tritile per (scale, frequency index, spatial position)."""
    if len(scales) == 0 or len(freq_range) == 0:
        raise ValueError("scales and freq_range must be nonempty")
    tiles = []
    for j in scales:
        for l in freq_range:
            for slot in _TILE_SLOTS:
                _block_window(grid, j, _slot_block(l, slot))
            tiles += [Tritile(iv, l) for iv in grid_dyadic_family(grid, range(j, j + 1))]
    return tiles


@lru_cache(maxsize=4096)
def _tile_base_packet(n, period, scale, freq_index, slot):
    """Band of the position-0 packet of one (scale, freq_index) slot."""
    return _window_band(SampleGrid(n, period), scale, _slot_block(freq_index, slot))


def tile_scale_coefficients(
    grid: SampleGrid, f: GridFunction, layers: Iterable[tuple[int, int]], slot: int
) -> dict[tuple[int, int], np.ndarray]:
    """{(j, l): <f, packet> for all spatial positions of that layer} over the
    given (scale, freq_index) layers; f is transformed once for all of them."""
    return _sweep(grid, f, slot, layers)

