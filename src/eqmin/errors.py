"""Exception hierarchy for eqmin."""


class EqminError(Exception):
    """Base class for all eqmin errors."""


class InvalidParameterError(EqminError):
    pass


class ResourceBudgetError(EqminError):
    pass


class MeshQualityError(EqminError):
    pass


class ShapeError(EqminError):
    pass


class IndeterminateKernelError(EqminError):
    """Raised when no clear singular-value gap separates a numerical kernel."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class LinearSolveError(EqminError):
    pass


class NonConvergenceError(EqminError):
    """Newton iteration failed; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class StagnationError(NonConvergenceError):
    pass


class StaleSolutionError(EqminError):
    pass
