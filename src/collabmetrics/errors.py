"""Exception hierarchy shared across the toolkit."""


class CollabMetricsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CollabMetricsError):
    """Input data violates a structural invariant (duplicates, bad references)."""


class NoBaselineError(CollabMetricsError):
    """A channel has no videos left to compute a viewership baseline from."""


class ConfigurationError(CollabMetricsError):
    """A component was configured inconsistently (e.g. topic schema without 'other')."""


class InfeasibleSpecError(CollabMetricsError):
    """A synthetic community spec asks for more than the population allows."""
