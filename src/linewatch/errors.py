"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """A scenario or component is configured inconsistently."""


class ParameterDomainError(ValueError):
    """A physical evaluation left its valid domain (e.g. non-positive density)."""


class SolverError(RuntimeError):
    """The transient/steady pipe-flow solver failed.

    Carries diagnostic context so callers can report what was attempted.
    """

    def __init__(self, message, *, iterations=None, residual=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = list(history) if history is not None else []


class InfeasibleScenarioError(RuntimeError):
    """No physically admissible solution exists for the requested conditions."""


class InfeasibleStateError(RuntimeError):
    """A solved state violates physical bounds (e.g. pressure <= 0 at a node)."""


# What stops a run: the model cannot carry the scenario any further.
SOLVER_FAILURES = (SolverError, InfeasibleScenarioError, InfeasibleStateError)
