"""Exception types shared across the package."""


class DyadiffError(Exception):
    """Base class for package errors."""


class LevelRangeError(DyadiffError, ValueError):
    """Interval level outside the configured |j| bound."""


class CapExceeded(DyadiffError, RuntimeError):
    """A series or search hit its hard cap before its tail certificate held."""


class ResidualTooLarge(DyadiffError, ArithmeticError):
    """An eigenrelation residual exceeded tolerance (implementation bug signal)."""


class QuadratureError(DyadiffError, RuntimeError):
    """Adaptive quadrature or a limit sequence failed to converge."""


class ExpansionParseError(DyadiffError, ValueError):
    """A Haar expansion file failed to parse."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
