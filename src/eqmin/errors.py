"""Exception hierarchy for eqmin."""


class EqminError(Exception):
    """Base class for all eqmin errors.  Its keyword arguments, the payload,
    become attributes, and a failed_at record carries them."""

    def __init__(self, message="", **payload):
        super().__init__(message)
        self.payload = payload
        vars(self).update(payload)


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
        super().__init__(message, singular_values=singular_values)


class LinearSolveError(EqminError):
    pass


class NonConvergenceError(EqminError):
    """Newton iteration failed; carries the residual trace and any further
    payload."""

    def __init__(self, message, trace=None, **payload):
        super().__init__(message, trace=trace or [], **payload)


class StagnationError(NonConvergenceError):
    pass


class StaleSolutionError(EqminError):
    pass
