"""wavetile: desk-scale numerics for dyadic time-frequency analysis.

Periodic grids and spectral projections, exact dyadic geometry and wave
packets, mixed quasinorms, size/energy/stopping-time machinery, the
bilinear operators built on top of them, and a batch experiment harness
that measures the constants in the inequalities they satisfy.
"""

from . import analysis, bench, dyadic, grid, norms, operators
from .errors import (
    AliasingError,
    ExponentConstraintError,
    InfeasibleMeasureError,
    MajorSubsetError,
    RangeConsistencyError,
    ScaleBudgetError,
    ShapeError,
    WavetileError,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "bench",
    "dyadic",
    "grid",
    "norms",
    "operators",
    "AliasingError",
    "ExponentConstraintError",
    "InfeasibleMeasureError",
    "MajorSubsetError",
    "RangeConsistencyError",
    "ScaleBudgetError",
    "ShapeError",
    "WavetileError",
]
