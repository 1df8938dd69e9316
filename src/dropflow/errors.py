"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Invalid shape specification or degenerate boundary (r <= 0, bad M)."""


class SolverError(RuntimeError):
    """Boundary-integral solve failed validation (conditioning, signs)."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class EvaluationError(ValueError):
    """Interior evaluation requested at inadmissible points."""

    def __init__(self, message, bad_indices=None):
        super().__init__(message)
        self.bad_indices = bad_indices


class ConvergenceError(RuntimeError):
    """A search found no admissible value within its bound."""


class ConfigError(ValueError):
    """Malformed or out-of-range scenario configuration."""


class FlowHalt(RuntimeError):
    """Time stepping halted before t_end (degenerate geometry, dt underflow)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
