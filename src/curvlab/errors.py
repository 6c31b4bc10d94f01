"""Exception hierarchy shared across the package."""


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class ExpressionError(CurvlabError):
    """Syntax or semantic error in a profile expression string."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} at column {column}"
        super().__init__(message)


class DomainError(CurvlabError):
    """Input violates a mathematical precondition (nonpositive profile,
    point outside the chart, dimension too small, ...)."""


class BracketError(DomainError):
    """Sub/supersolution ordering violated."""


class StiffFailure(CurvlabError):
    """The adaptive integrator underflowed its step size or started from a
    non-finite derivative; not a verdict."""


class WindowTooSmall(DomainError):
    """The truncation window [t0, T] cannot contain the predicted witnesses."""

    def __init__(self, message, required_T):
        self.required_T = required_T
        super().__init__(f"{message} (required T >= {required_T:.6g})")
