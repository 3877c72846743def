"""Exception types shared across the package."""


class DVSemigroupError(Exception):
    """Base class for all library errors."""


class NegativeOffDiagonal(DVSemigroupError):
    """An off-diagonal rate is negative. Carries 0-based indices (i, j)."""

    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"off-diagonal rate Q[{i},{j}] = {value} is negative")


class RowSumNonzero(DVSemigroupError):
    """A row sum exceeds the repair tolerance. Carries 0-based row index."""

    def __init__(self, i, row_sum, tol):
        self.i, self.row_sum, self.tol = i, row_sum, tol
        super().__init__(f"row {i} sums to {row_sum} (tolerance {tol})")


class GraphDisconnected(DVSemigroupError):
    """The undirected support graph splits into several components."""

    def __init__(self, components):
        self.components = components
        super().__init__(f"support graph is disconnected: components {components}")


class DimensionMismatch(DVSemigroupError):
    pass


class NonFinite(DVSemigroupError):
    """A computation overflowed, underflowed to zero where a positive value
    is required, or produced NaN; reported, never saturated."""


class ConvergenceFailure(DVSemigroupError):
    """Eigensolver stalled. Carries iteration count and last residual."""

    def __init__(self, iterations, residual):
        self.iterations, self.residual = iterations, residual
        super().__init__(
            f"eigensolver did not converge after {iterations} iterations "
            f"(residual {residual:.3e})")


class NotConverged(DVSemigroupError):
    """An optimizer stopped short. Carries the best value seen and a residual."""

    def __init__(self, best_value, residual, iterations=None):
        self.best_value, self.residual, self.iterations = best_value, residual, iterations
        super().__init__(
            f"optimizer did not converge (best value {best_value}, residual {residual:.3e})")


class UnsupportedSupport(DVSemigroupError):
    """A measure has a zero entry where every entry must be positive."""


class StateSpaceTooLarge(DVSemigroupError):
    """A product system's arrays would exceed the memory budget. Carries the
    bytes needed and the budget, both in bytes."""

    def __init__(self, needed, budget):
        self.needed, self.budget = needed, budget
        super().__init__(f"product system needs {needed} bytes, budget is {budget} bytes")


class ConfigError(DVSemigroupError):
    """A scenario file is malformed. Carries the offending key when known."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message if key is None else f"{message} (key: {key})")
