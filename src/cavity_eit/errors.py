"""Exception and warning types shared across the package."""


class CapacityError(ValueError):
    """Requested problem size exceeds the configured solver capacity."""


class DegenerateSteadyStateError(RuntimeError):
    """The steady-state system is numerically singular: no unique state is determined."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class SteadyStateConvergenceError(RuntimeError):
    """Steady-state residual exceeded the requested tolerance."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class IntegrationInstabilityError(RuntimeError):
    """Trace drift during time integration exceeded the per-step bound."""


class EdgeExtremumError(RuntimeError):
    """A grid extremum sits on the sweep window edge and cannot be refined."""


class ConfigError(ValueError):
    """Malformed, unknown, or physically inconsistent configuration input."""


class NearDegeneracyWarning(UserWarning):
    """The Lindblad generator is close to having multiple steady states."""
