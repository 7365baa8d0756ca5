"""Exact dyadic interval geometry, adapted bumps, wave packets, tritiles.

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
from functools import cached_property, lru_cache

import numpy as np

from .errors import ScaleBudgetError
from .grid import GridFunction, SampleGrid, max_scale

__all__ = [
    "DyadicInterval",
    "AdaptedBump",
    "adapted_bump_eval",
    "WavePacketFamily",
    "Tritile",
    "localize_collection",
    "collection_plus",
    "translate_interval",
    "build_rank_one_tiles",
    "grid_dyadic_family",
    "interval_indices",
    "min_packet_scale",
    "packet_profile",
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

    @property
    def left(self) -> float:
        return self.position * self.length

    @property
    def right(self) -> float:
        return (self.position + 1) * self.length

    @property
    def center(self) -> float:
        return (self.position + 0.5) * self.length

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

    def disjoint(self, other: "DyadicInterval") -> bool:
        return not (self.contains(other) or other.contains(self))

    def ancestor(self, scale: int) -> "DyadicInterval":
        """The unique ancestor at a coarser (smaller) scale."""
        if scale > self.scale:
            raise ValueError("ancestor scale must be <= interval scale")
        return DyadicInterval(scale, self.position >> (self.scale - scale))


def translate_interval(interval: DyadicInterval, n: int) -> DyadicInterval:
    """I + n|I|: same scale, position shifted by n."""
    return DyadicInterval(interval.scale, interval.position + n)


def localize_collection(
    family: list[DyadicInterval], bound: DyadicInterval
) -> list[DyadicInterval]:
    """Members contained in ``bound``, in input order."""
    return [iv for iv in family if bound.contains(iv)]


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
    family: list[DyadicInterval],
    bound: DyadicInterval | None = None,
    min_scale: int | None = None,
) -> list[DyadicInterval]:
    """All dyadic J containing at least one member.

    With ``bound`` given, J additionally has to lie inside the tripled
    interval 3*bound (and no ``min_scale`` is needed: the ancestor chain
    stops once it escapes).  Without a bound, ``min_scale`` caps how coarse
    the ancestors may get.
    """
    if bound is None and min_scale is None:
        raise ValueError("unbounded collection_plus needs min_scale")
    seen: dict[DyadicInterval, None] = {}
    for iv in family:
        j = iv
        while True:
            if bound is not None:
                if not _tripled_contains(bound, j):
                    break
            elif j.scale < min_scale:
                break
            if j not in seen:
                seen[j] = None
            if bound is None and j.scale == min_scale:
                break
            nxt = j.parent()
            if bound is not None and not _tripled_contains(bound, nxt):
                break
            j = nxt
    return list(seen)


def grid_dyadic_family(
    grid: SampleGrid,
    scales: range | None = None,
) -> list[DyadicInterval]:
    """The budgeted dyadic intervals tiling the torus [0, period).

    Scales run from the single whole-torus interval down to intervals
    spanning four samples (the same budget as the frequency projections).
    """
    kappa = grid.log2_period()
    if scales is None:
        scales = range(-kappa, max_scale(grid) + 1)
    out = []
    for j in scales:
        if j > max_scale(grid) or j < -kappa:
            raise ScaleBudgetError(f"scale {j} outside grid budget")
        for m in range(2 ** (j + kappa)):
            out.append(DyadicInterval(j, m))
    return out


def interval_indices(grid: SampleGrid, interval: DyadicInterval) -> np.ndarray:
    """Sample indices covered by an interval on the torus (wrapping allowed)."""
    stride = interval.length / grid.spacing
    if not float(stride).is_integer():
        raise ScaleBudgetError(
            f"interval {interval} does not align with the sample grid"
        )
    stride = int(stride)
    start = interval.position * stride
    return (start + np.arange(stride)) % grid.sample_count


# ---------------------------------------------------------------------------
# Adapted bumps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedBump:
    """Polynomial-decay weight (1 + dist(x, I)/|I|)**-M around an interval."""

    interval: DyadicInterval
    decay_exponent: int = 10

    def __post_init__(self):
        if self.decay_exponent < 1:
            raise ValueError("decay exponent must be a positive integer")

    def __call__(self, x) -> np.ndarray:
        return adapted_bump_eval(self, x)


def adapted_bump_eval(bump: AdaptedBump, x) -> np.ndarray:
    """Evaluate the bump at points on the line (no periodization)."""
    x = np.asarray(x, dtype=float)
    iv = bump.interval
    dist = np.maximum(iv.left - x, 0.0) + np.maximum(x - iv.right, 0.0)
    return (1.0 + dist / iv.length) ** (-bump.decay_exponent)


def torus_bump_samples(
    grid: SampleGrid,
    interval: DyadicInterval,
    decay_exponent: int = 10,
    shift_n: int = 0,
) -> np.ndarray:
    """Samples of the periodized adapted bump of I + shift_n*|I| on the torus.

    Distance is measured on the torus by summing the line bump over enough
    period wraps that the dropped tail is below 1e-16.
    """
    return _torus_bump_cached(
        grid.sample_count, grid.period_length, interval.scale,
        interval.position + shift_n, decay_exponent,
    )


@lru_cache(maxsize=4096)
def _torus_bump_cached(n, period, scale, position, decay_exponent):
    grid = SampleGrid(n, period)
    x = grid.points()
    length = 2.0 ** (-scale)
    left = (position * length) % period
    ratio = period / length
    # wraps needed: ((w-1) * period / length) ** -M < 1e-16
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
# Wave packets
# ---------------------------------------------------------------------------

PACKET_SMOOTHNESS = 8


def packet_profile(u, order: int = PACKET_SMOOTHNESS) -> np.ndarray:
    """Cosine-power spectral window cos(pi u / 2)**order on [-1, 1].

    Finitely smooth (C^(order-1)) at the edges, so the packet it generates
    has algebraic spatial tails of matching order; an infinitely smooth
    window sampled at the handful of frequencies inside a dyadic block
    decays far more slowly than its continuum version, which would break
    the adapted-decay axiom at desk scale.
    """
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    return np.cos(np.pi * u / 2.0) ** order


def min_packet_scale(grid: SampleGrid) -> int:
    """Coarsest scale whose packet window holds an interior frequency.

    The window has length 2**j * period in index units and the profile
    vanishes at its endpoints, so 2**j * period >= 2 is required.
    """
    return 1 - grid.log2_period()


def _packet_window(grid: SampleGrid, scale: int, flavor: str) -> tuple[float, float]:
    """Frequency window (in integer index units) for a packet flavor.

    Out-of-budget scales raise: finer than ``max_scale``, or so coarse that
    the window spans fewer than two frequencies.
    """
    if scale > max_scale(grid):
        raise ScaleBudgetError(f"packet scale {scale} exceeds budget {max_scale(grid)}")
    period = grid.period_length
    per_unit = 2.0 ** scale  # 1/|I| in cycles per unit
    if per_unit * period < 2.0:
        raise ScaleBudgetError(
            f"packet window at scale {scale} spans fewer than two frequencies"
        )
    if flavor == "lacunary":
        lo, hi = per_unit, 2 * per_unit
    elif flavor == "non-lacunary":
        lo, hi = 0.0, per_unit
    else:
        raise ValueError(f"unknown packet flavor {flavor!r}")
    return lo * period, hi * period


def _window_packet(grid: SampleGrid, scale: int, lo: float, hi: float):
    """L2-normalized position-0 packet of one scale, centered at |I|/2.

    Its spectrum is the cosine-power window on [lo, hi] (index units).
    """
    grid.log2_period()  # packets tile the torus only for a power-of-two period
    m = grid.frequencies()
    center_f = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    prof = packet_profile((m - center_f) / half).astype(complex)
    center = 0.5 * 2.0 ** (-scale)
    prof *= np.exp(-2j * np.pi * m * center / grid.period_length)
    samples = np.fft.ifft(prof)
    nrm = np.sqrt(np.sum(np.abs(samples) ** 2) * grid.spacing)
    samples = samples / nrm
    samples.flags.writeable = False
    return samples


def _read_only_fft(samples: np.ndarray) -> np.ndarray:
    """``np.fft.fft(samples)``, frozen for the packet caches."""
    spectrum = np.fft.fft(samples)
    spectrum.flags.writeable = False
    return spectrum


def _stride(grid: SampleGrid, scale: int) -> int:
    """Samples per interval at ``scale``: the step between packet translates."""
    return round(2.0 ** (-scale) / grid.spacing)


def _translate(grid: SampleGrid, base: np.ndarray, scale: int, position: int) -> GridFunction:
    """The position-0 packet ``base`` moved to ``position`` at ``scale``."""
    shift = position * _stride(grid, scale)
    return GridFunction(grid, np.roll(base, shift % grid.sample_count))


def _correlate(
    grid: SampleGrid, f_hat: np.ndarray, base_hat: np.ndarray, scale: int, shift_n: int = 0
) -> np.ndarray:
    """<f, base translated to position p + shift_n> for every position p.

    ``f_hat`` and ``base_hat`` are the ``np.fft.fft`` spectra of f and of the
    position-0 packet: one circular correlation, sampled every stride.
    """
    corr = np.fft.ifft(f_hat * np.conj(base_hat))
    coefs = corr[:: _stride(grid, scale)] * grid.spacing
    return np.roll(coefs, -shift_n) if shift_n else coefs


def _synthesize(grid: SampleGrid, layers) -> GridFunction:
    """sum over (weights, base_hat) layers of sum_p weights[p] * base
    translated to position p, where ``base_hat`` is the base packet's spectrum.

    Each layer scatters its weights at the stride and costs one convolution;
    the layers share a single inverse FFT.
    """
    n = grid.sample_count
    out_spec = np.zeros(n, dtype=complex)
    for weights, base_hat in layers:
        arr = np.zeros(n, dtype=complex)
        arr[:: n // len(weights)] = weights
        out_spec += np.fft.fft(arr) * base_hat
    return GridFunction(grid, np.fft.ifft(out_spec))


@lru_cache(maxsize=2048)
def _base_packet(n, period, scale, flavor):
    """Spectrum of the packet for position 0 of the given scale."""
    grid = SampleGrid(n, period)
    lo, hi = _packet_window(grid, scale, flavor)
    return _read_only_fft(_window_packet(grid, scale, lo, hi))


class WavePacketFamily:
    """L2-normalized packets indexed by a family of dyadic intervals.

    Packets at one scale are exact translates of each other, so coefficient
    extraction for a full scale is a single circular correlation, and its
    adjoint, synthesis from per-position weights, a single convolution.
    """

    def __init__(self, grid: SampleGrid, intervals: list[DyadicInterval], flavor: str):
        if flavor not in ("lacunary", "non-lacunary"):
            raise ValueError(f"unknown packet flavor {flavor!r}")
        self.grid = grid
        self.intervals = list(intervals)
        self.flavor = flavor
        grid.log2_period()

    def _base(self, scale: int) -> np.ndarray:
        return _base_packet(
            self.grid.sample_count, self.grid.period_length, scale, self.flavor
        )

    @cached_property
    def _layout(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(scale, list indices, positions) per scale of the interval list,
        scales in order of first appearance, indices in list order."""
        kappa = self.grid.log2_period()
        scales = np.array([iv.scale for iv in self.intervals], dtype=np.int64)
        positions = np.array([iv.position for iv in self.intervals], dtype=np.int64)
        uniq, first = np.unique(scales, return_index=True)
        layout = []
        for j in uniq[np.argsort(first)].tolist():
            idx = np.flatnonzero(scales == j)
            layout.append((j, idx, positions[idx] % (2 ** (j + kappa))))
        return layout

    def packet(self, interval: DyadicInterval, shift_n: int = 0) -> GridFunction:
        """The packet of I + shift_n |I|, built directly (no packet cache)."""
        lo, hi = _packet_window(self.grid, interval.scale, self.flavor)
        base = _window_packet(self.grid, interval.scale, lo, hi)
        return _translate(self.grid, base, interval.scale, interval.position + shift_n)

    def scale_coefficients(
        self, f: GridFunction, scales: Iterable[int], shift_n: int = 0
    ) -> dict[int, np.ndarray]:
        """{j: <f, packet((j, p + shift_n))> for every position p} over the
        given scales; f is transformed once for all of them."""
        f_hat = np.fft.fft(f.samples)
        return {
            j: _correlate(self.grid, f_hat, self._base(j), j, shift_n) for j in scales
        }

    def coefficients(self, f: GridFunction, shift_n: int = 0) -> np.ndarray:
        """<f, packet(I)> aligned with the interval list."""
        layout = self._layout
        by_scale = self.scale_coefficients(f, [j for j, _, _ in layout], shift_n)
        out = np.empty(len(self.intervals), dtype=complex)
        for j, idx, pos in layout:
            out[idx] = by_scale[j][pos]
        return out

    def scale_synthesize(self, weights: dict[int, np.ndarray]) -> GridFunction:
        """sum over scales j and positions p of weights[j][p] * packet((j, p)).

        The adjoint of :meth:`scale_coefficients`: ``weights[j]`` has one
        entry per position at scale j.
        """
        return _synthesize(
            self.grid, ((w, self._base(j)) for j, w in weights.items())
        )

    def synthesize(self, weights: np.ndarray) -> GridFunction:
        """sum_I w_I packet(I) over the interval list.

        The adjoint of :meth:`coefficients`; repeated intervals add up, in
        list order.
        """
        kappa = self.grid.log2_period()
        weights = np.asarray(weights)
        by_scale: dict[int, np.ndarray] = {}
        for j, idx, pos in self._layout:
            arr = np.zeros(2 ** (j + kappa), dtype=complex)
            np.add.at(arr, pos, weights[idx])  # unbuffered: in list order
            by_scale[j] = arr
        return self.scale_synthesize(by_scale)


# ---------------------------------------------------------------------------
# Tritiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tritile:
    """Three frequency tiles over one spatial interval, one degree of freedom.

    The frequency intervals are the consecutive blocks
    ``omega_s = [(freq_index + s - 1) * 2**j, (freq_index + s) * 2**j)`` for
    slots s = 1, 2, 3, where ``2**-j`` is the spatial length.
    """

    spatial: DyadicInterval
    freq_index: int

    def omega(self, slot: int) -> tuple[float, float]:
        if slot not in (1, 2, 3):
            raise ValueError("slot must be 1, 2, or 3")
        step = 2.0 ** self.spatial.scale
        lo = (self.freq_index + slot - 1) * step
        return lo, lo + step


def build_rank_one_tiles(
    grid: SampleGrid,
    scales: range,
    freq_range: range,
) -> list[Tritile]:
    """One tritile per (scale, frequency index, spatial position)."""
    if len(scales) == 0 or len(freq_range) == 0:
        raise ValueError("scales and freq_range must be nonempty")
    kappa = grid.log2_period()
    nyq = grid.sample_count // 2
    tiles = []
    for j in scales:
        if j > max_scale(grid):
            raise ScaleBudgetError(f"tile scale {j} exceeds budget {max_scale(grid)}")
        step_idx = 2.0 ** j * grid.period_length  # block length in index units
        for l in freq_range:
            lo = l * step_idx
            hi = (l + 3) * step_idx
            if lo < -nyq or hi > nyq:
                raise ScaleBudgetError(
                    f"frequency block [{lo}, {hi}] exceeds Nyquist +-{nyq}"
                )
            for m in range(2 ** (j + kappa)):
                tiles.append(Tritile(DyadicInterval(j, m), l))
    return tiles


def _tile_window(grid: SampleGrid, scale: int, freq_index: int, slot: int) -> tuple[float, float]:
    """Frequency window (index units) of one tile slot; raises when it spans
    fewer than two frequencies."""
    period = grid.period_length
    step = 2.0 ** scale
    if step * period < 2.0:
        raise ScaleBudgetError(
            f"tile window at scale {scale} spans fewer than two frequencies"
        )
    return (freq_index + slot - 1) * step * period, (freq_index + slot) * step * period


def tile_packet(grid: SampleGrid, tile: Tritile, slot: int) -> GridFunction:
    """L2-normalized wave packet adapted to one tile slot, built directly
    (no packet cache)."""
    scale = tile.spatial.scale
    lo, hi = _tile_window(grid, scale, tile.freq_index, slot)
    base = _window_packet(grid, scale, lo, hi)
    return _translate(grid, base, scale, tile.spatial.position)


@lru_cache(maxsize=4096)
def _tile_base_packet(n, period, scale, freq_index, slot):
    """Spectrum of the position-0 packet of one (scale, freq_index) slot."""
    grid = SampleGrid(n, period)
    lo, hi = _tile_window(grid, scale, freq_index, slot)
    return _read_only_fft(_window_packet(grid, scale, lo, hi))


def tile_scale_coefficients(
    grid: SampleGrid, f: GridFunction, layers: Iterable[tuple[int, int]], slot: int
) -> dict[tuple[int, int], np.ndarray]:
    """{(j, l): <f, packet> for all spatial positions of that layer} over the
    given (scale, freq_index) layers; f is transformed once for all of them."""
    n, period = grid.sample_count, grid.period_length
    f_hat = np.fft.fft(f.samples)
    return {
        (j, l): _correlate(grid, f_hat, _tile_base_packet(n, period, j, l, slot), j)
        for j, l in layers
    }


def tile_scale_synthesize(
    grid: SampleGrid, weights: dict[tuple[int, int], np.ndarray], slot: int
) -> GridFunction:
    """sum over layers (j, l) and positions p of weights[(j, l)][p] times the
    slot packet of the tile over (j, p) with frequency index l.

    The adjoint of :func:`tile_scale_coefficients`, one layer per key.
    """
    n, period = grid.sample_count, grid.period_length
    return _synthesize(grid, (
        (w, _tile_base_packet(n, period, j, l, slot))
        for (j, l), w in weights.items()
    ))
