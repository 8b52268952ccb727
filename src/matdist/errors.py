"""Exception types shared across the package."""


class MatdistError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MatdistError, ValueError):
    """A body point lies outside the model's declared domain."""


class SingularMatrixError(MatdistError, ValueError):
    """A matrix that must be invertible is (numerically) singular."""


class NonFiniteError(MatdistError, ValueError):
    """A NaN or infinity appeared where a finite value is required."""


class ModelParseError(MatdistError, ValueError):
    """Model-source text failed to parse or kind-check."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class EvaluationError(MatdistError, ValueError):
    """A parsed expression failed at evaluation time (e.g. division by zero)."""


class FibreInstabilityError(MatdistError, RuntimeError):
    """The fibre null-space dimension did not stabilize within the sample budget."""

    def __init__(self, message, history):
        super().__init__(f"{message}; dimension history {list(history)}")
        self.history = list(history)


class SamplerExhaustedError(MatdistError, RuntimeError):
    """The gradient sampler found too few acceptable gradients within its batch budget."""
