"""Exception hierarchy shared across the package."""


class FraclapError(Exception):
    """Base class for all package-specific errors."""


class GraphParseError(FraclapError, ValueError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ScheduleError(FraclapError, ValueError):
    """Invalid exponent-schedule descriptor or parameters."""


class ConfigError(FraclapError, ValueError):
    """Invalid run configuration (bad flag combination, out-of-range value)."""


class NumericError(FraclapError, RuntimeError):
    """Base class for numerical failures (exit code 3 at the CLI)."""


class ConvergenceError(NumericError):
    """An iterative kernel failed to reach its tolerance."""


class QuadratureError(NumericError):
    """Adaptive quadrature exhausted its subdivision budget.

    ``interval`` is the offending subinterval, ``component`` the index of the
    integrand component that failed its tolerance (None for scalar
    integrands, or when the budget is too small for the initial panels).
    """

    def __init__(self, message, interval=None, component=None):
        super().__init__(message)
        self.interval = interval
        self.component = component


class StiffnessError(NumericError):
    """Explicit integrator step size underflowed; the problem looks stiff.

    The partially computed trajectory (if any samples were reached) is
    attached so callers can inspect how far the integration got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
