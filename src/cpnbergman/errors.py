"""Exception types shared across the package."""


class ComputationError(Exception):
    """Base class for failures inside a numerical or exact computation."""


class QuadratureError(ComputationError):
    """Adaptive quadrature exhausted its budget before reaching tolerance."""


class PositivityError(ComputationError):
    """A quantity that must be positive (metric form, section norm) is not."""


class UnsupportedDimensionError(ComputationError):
    """Operation is only implemented for specific dimensions."""


class InsufficientSamplesError(ComputationError):
    """Too few samples for the requested fit order."""


class NonConvergenceError(ComputationError):
    """An iteration exceeded its budget without converging.

    Carries the partial iteration state when available so callers can
    inspect or report the trace.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
