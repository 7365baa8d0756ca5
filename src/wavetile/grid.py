"""Periodic sample grids, spectral transforms, and frequency projections.

Conventions used throughout the package:

* A grid has ``sample_count`` points per axis on the torus ``[0, period)``,
  with spacing ``dx = period / sample_count``.
* Frequencies are indexed by integers ``m`` in ``[-N/2, N/2)``; the mode with
  index ``m`` is ``exp(2*pi*i*m*x/period)``.  Scale parameters ``k`` always
  refer to frequency in cycles per unit length (so a dyadic interval of
  length ``2**-k`` pairs with frequencies near ``2**k`` regardless of the
  period).
* Spectral multipliers are applied with the plain fft/ifft pair, which is
  normalization-free.
* Inner products are hermitian: ``<u, v> = sum(u * conj(v)) * dx**dim``.
* The low-pass profile ``low_pass_profile`` equals 1 on ``[-1/2, 1/2]`` and
  vanishes outside ``[-1, 1]``; the band profile is the dilation difference
  ``low_pass_profile(u/2) - low_pass_profile(u)``, so consecutive low-pass
  projections telescope exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ScaleBudgetError, ShapeError

__all__ = [
    "SampleGrid",
    "GridFunction",
    "SpectralMultiplier",
    "low_pass_profile",
    "band_profile",
    "littlewood_paley",
    "fractional_derivative",
    "max_scale",
    "scale_range",
]


@dataclass(frozen=True)
class SampleGrid:
    """Uniform periodic grid with a power-of-two number of samples per axis."""

    sample_count: int
    period_length: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        n = self.sample_count
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"sample_count must be a power of two >= 8, got {n}")
        if self.period_length <= 0:
            raise ValueError("period_length must be positive")
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        # computed once: the dyadic layers ask for it on every packet sweep
        kappa = None
        if np.isfinite(self.period_length):
            k = round(np.log2(self.period_length))
            if np.isclose(self.period_length, 2.0 ** k):
                kappa = int(k)
        object.__setattr__(self, "_log2_period", kappa)

    @property
    def spacing(self) -> float:
        return self.period_length / self.sample_count

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.dimension

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.sample_count,) * self.dimension

    def points(self) -> np.ndarray:
        """Sample coordinates, the same along every axis."""
        return np.arange(self.sample_count) * self.spacing

    def frequencies(self) -> np.ndarray:
        """Integer frequency indices in fft order."""
        return np.fft.fftfreq(self.sample_count, d=1.0 / self.sample_count)

    def log2_period(self) -> int:
        """Exponent kappa with period = 2**kappa; error if not a power of two."""
        if self._log2_period is None:
            raise ValueError(
                "dyadic machinery requires a power-of-two period, "
                f"got {self.period_length}"
            )
        return self._log2_period


@dataclass
class GridFunction:
    """Complex samples on a grid, with optional trailing vector axes.

    The sample array is laid out spatial-axes-first: shape
    ``grid.spatial_shape + vector_shape``.  Norm evaluation treats the
    spatial axes with measure ``dx`` per axis and vector axes with counting
    measure.
    """

    grid: SampleGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        expected = self.grid.spatial_shape
        if self.samples.shape[: self.grid.dimension] != expected:
            raise ShapeError(
                f"leading axes {self.samples.shape[:self.grid.dimension]} "
                f"do not match grid shape {expected}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def vector_shape(self) -> tuple[int, ...]:
        return self.samples.shape[self.grid.dimension:]

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.samples - other.samples)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _require_same_grid(self, other)
            return GridFunction(self.grid, self.samples * other.samples)
        return GridFunction(self.grid, self.samples * other)

    __rmul__ = __mul__

    def norm2(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.cell_measure)
        )


def _require_same_grid(f: GridFunction | SpectralMultiplier, g: GridFunction):
    if f.grid != g.grid:
        raise ShapeError(f"operands on different grids: {f.grid} and {g.grid}")


# ---------------------------------------------------------------------------
# Bump profiles
# ---------------------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def low_pass_profile(u) -> np.ndarray:
    """Smooth even bump: 1 on [-1/2, 1/2], supported in [-1, 1]."""
    au = np.abs(np.asarray(u, dtype=float))
    return _smoothstep(2.0 * (1.0 - au))


def band_profile(u) -> np.ndarray:
    """Annulus bump: low_pass(u/2) - low_pass(u), supported in 1/2 <= |u| <= 2."""
    u = np.asarray(u, dtype=float)
    return low_pass_profile(u / 2.0) - low_pass_profile(u)


# ---------------------------------------------------------------------------
# Scale budget
# ---------------------------------------------------------------------------

def max_scale(grid: SampleGrid) -> int:
    """Largest admissible scale k: the annulus at scale k must satisfy
    2**(k+1) cycles/unit <= Nyquist/2, i.e. 2**(k+1) * period <= N/2."""
    return int(np.floor(np.log2(grid.sample_count / grid.period_length))) - 2


def scale_range(grid: SampleGrid) -> range:
    """All scales from the single whole-torus block up to the budget."""
    kappa = grid.log2_period()
    return range(-kappa, max_scale(grid) + 1)


def scales_reaching(grid: SampleGrid, scales: range, band: int) -> range:
    """The leading scales of ``scales`` whose annulus reaches frequency
    ``band``.

    Q_k vanishes on |m| <= period * 2**(k-1), so on inputs band-limited to
    ``band`` every later scale adds only round-off, and P_k is the identity
    on them past the last scale kept.  The first scale always stays: it
    carries the coarse block.
    """
    stop = next((k for k in scales[1:] if grid.period_length * 2.0 ** (k - 1) >= band),
                scales.stop)
    return range(scales.start, stop)


def _check_scale(grid: SampleGrid, k: int):
    if k > max_scale(grid):
        raise ScaleBudgetError(
            f"scale {k} exceeds the grid budget (max {max_scale(grid)} "
            f"for N={grid.sample_count}, period={grid.period_length})"
        )


# ---------------------------------------------------------------------------
# Multipliers and projections
# ---------------------------------------------------------------------------

@dataclass
class SpectralMultiplier:
    """Multiplier values indexed by integer frequency, stored in fft order."""

    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.sample_count,):
            raise ShapeError("multiplier length must equal sample_count")

    def apply(self, f: GridFunction, axis: int = 0) -> GridFunction:
        _require_same_grid(self, f)
        if not 0 <= axis < f.grid.dimension:
            raise ShapeError(f"axis {axis} is not a spatial axis")
        spec = np.fft.fft(f.samples, axis=axis)
        shape = [1] * f.samples.ndim
        shape[axis] = self.grid.sample_count
        spec *= self.values.reshape(shape)
        return GridFunction(f.grid, np.fft.ifft(spec, axis=axis))


@lru_cache(maxsize=512)
def _projection_values(n: int, period: float, k: int, flavor: str) -> np.ndarray:
    m = np.fft.fftfreq(n, d=1.0 / n)
    u = m / (period * 2.0 ** k)
    if flavor == "P":
        vals = low_pass_profile(u)
    elif flavor == "Q":
        vals = band_profile(u)
    else:
        raise ValueError(f"flavor must be 'P' or 'Q', got {flavor!r}")
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=512)
def _band(n: int, period: float, k: int) -> tuple[int, tuple[tuple[slice, slice], ...]]:
    """Size of the band that carries any product of two projections at
    scale k, and its two halves as (full-grid slice, band slice) pairs.

    A P projection at scale k lives on |m| < period*2**k and a Q projection
    on |m| < 2*period*2**k, so a product of two lives on |m| < 4*period*2**k
    and is computed exactly on size = min(n, 8*period*2**k) points.  In fft
    order both the grid and the band list their nonnegative frequencies
    first and their negative ones last, so each half is one slice of
    either, and ``_projection_values(size, period, k, flavor)`` is the
    profile on the band.
    """
    size = min(n, int(8 * period * 2.0 ** k))
    h = size // 2
    return size, ((slice(0, h), slice(0, h)), (slice(n - h, n), slice(h, size)))


def _band_blocks(grid: SampleGrid, scales: tuple[int, ...]) -> tuple[tuple[int, ...], list]:
    """Shape of the band of per-axis ``scales``, and its blocks: pairs of
    basic indices over the leading spatial axes, into a full spectrum and
    into the band, that cover the band once.

    Basic slices make every block a view, so gathering a band costs one copy
    and adding a band into a spectrum runs in place.
    """
    axes = [_band(grid.sample_count, grid.period_length, k) for k in scales]
    shape = tuple(size for size, _ in axes)
    blocks = [tuple(zip(*halves)) for halves in product(*(h for _, h in axes))]
    return shape, blocks


def littlewood_paley(f: GridFunction, k: int, flavor: str, axis: int = 0) -> GridFunction:
    """Frequency projection at scale k: low-pass ("P") or annulus ("Q");
    out-of-budget scales raise :class:`ScaleBudgetError`."""
    _check_scale(f.grid, k)
    grid = f.grid
    vals = _projection_values(grid.sample_count, grid.period_length, k, flavor)
    return SpectralMultiplier(grid, vals).apply(f, axis=axis)


def fractional_derivative(f: GridFunction, alpha: float, axis: int = 1) -> GridFunction:
    """Spectral multiplication by |m|**alpha along one spatial axis.

    ``axis`` is 1-based (1 or 2) to match the two-parameter derivative
    notation; frequency zero maps to zero for alpha > 0 and to itself for
    alpha = 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    ax = axis - 1
    if ax >= f.grid.dimension:
        raise ShapeError(f"axis {axis} is not present on a {f.grid.dimension}d grid")
    m = np.abs(f.grid.frequencies())
    if alpha == 0:
        vals = np.ones_like(m)
    else:
        vals = m ** alpha
    return SpectralMultiplier(f.grid, vals).apply(f, axis=ax)


# ---------------------------------------------------------------------------
# Spectral support
# ---------------------------------------------------------------------------

def _active_bins(spec: np.ndarray, axes: tuple[int, ...]) -> list[np.ndarray]:
    """For each of ``axes``, which of its bins hold an entry of ``spec``
    above 1e-12 of that component's peak: the floor that tells a band from
    round-off.  The peak is taken over ``axes``, per index of the others
    (the vector axes of a spectrum)."""
    mag = np.abs(spec)
    active = mag > 1e-12 * mag.max(axis=axes, keepdims=True)
    return [active.any(axis=tuple(a for a in range(active.ndim) if a != ax)) for ax in axes]


def band_limit(grid: SampleGrid, spec: np.ndarray) -> int:
    """Largest |m|, along any spatial axis, at which some component of
    ``spec`` (a spectrum with the spatial axes leading, any vector axes
    after them) carries mass above 1e-12 of that component's peak; 0 for a
    zero spectrum."""
    hit = np.logical_or.reduce(_active_bins(spec, tuple(range(grid.dimension))))
    return int(np.abs(grid.frequencies())[hit].max(initial=0))
