"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for numerical failures inside the solvers."""


class FactorizationFailed(SolverError):
    """Cholesky factorization did not succeed even after diagonal
    regularization retries; the normal matrix is numerically rank
    deficient."""


class NumericalBreakdown(SolverError):
    """A non-finite value (or a loss of positive definiteness) was
    encountered inside an iterative solver.  ``iterations`` counts the
    iterations the solver ran before it broke down, the one that broke
    down included."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


class ParseError(ValueError):
    """Malformed MPS input. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelError(ValueError):
    """The problem data is inconsistent (e.g. lower bound above upper
    bound, or an unbounded empty column)."""


class InteriorityViolation(ValueError):
    """A point that must be strictly interior (0 < x < u) is not."""


class InsufficientData(ValueError):
    """Not enough trace records to run the requested analysis."""
