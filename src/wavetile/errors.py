"""Exception types shared across the package."""


class WavetileError(Exception):
    """Base class for package-specific failures."""


class ScaleBudgetError(WavetileError, ValueError):
    """A requested scale does not fit the grid's resolvable range."""


class AliasingError(WavetileError, ValueError):
    """Input support or spectrum would wrap around the periodic window."""


class ShapeError(WavetileError, ValueError):
    """Array axes do not match the declared grid/vector layout."""


class MajorSubsetError(WavetileError, RuntimeError):
    """A constructed subset failed the |E'| >= |E|/2 requirement.

    Carries ``achieved_ratio`` = |E'| / |E| so the caller can decide
    whether to retry with a larger threshold constant.
    """

    def __init__(self, message: str, achieved_ratio: float):
        super().__init__(message)
        self.achieved_ratio = achieved_ratio


class InfeasibleMeasureError(WavetileError, ValueError):
    """A requested set measure is not representable on the grid."""


class ExponentConstraintError(WavetileError, ValueError):
    """An exponent assignment violates a required constraint.

    ``constraint`` names the violated condition.
    """

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


class RangeConsistencyError(WavetileError, RuntimeError):
    """The two range-membership routes disagreed (internal bug trap)."""
