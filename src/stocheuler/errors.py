"""Exception types shared across the package."""


class StochEulerError(Exception):
    """Base class for all package errors.

    rows, when given, are the batch rows (paths) at fault: an error raised
    on a batch of paths names them, so the others can go on without them.
    """

    def __init__(self, *args, rows=None):
        super().__init__(*args)
        self.rows = rows


class UnsupportedNorm(StochEulerError):
    """Requested (m, p) combination is outside the supported range."""


class ShapeMismatch(StochEulerError):
    """Array/mode-count mismatch between inputs."""


class DegenerateInput(StochEulerError):
    """Inputs coincide (or nearly so) where a difference is required."""


class CflViolation(StochEulerError):
    """Time step exceeds the advective CFL limit."""


class NonFinite(StochEulerError):
    """NaN/Inf encountered; treated as numerical blow-up by callers."""


class InvalidParams(StochEulerError):
    """Parameter set violates a documented invariant."""


class DomainError(StochEulerError):
    """Argument outside the mathematical domain of the function."""


class StiffnessFailure(StochEulerError):
    """Fixed-step integration could not meet the requested tolerance."""


class ConfigError(StochEulerError):
    """Run configuration failed validation; message names the key at fault."""
