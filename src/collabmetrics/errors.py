"""Exception hierarchy shared across the toolkit."""


class CollabMetricsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CollabMetricsError):
    """Input data violates a structural invariant (duplicates, bad references)."""


class ConfigurationError(CollabMetricsError):
    """A component was configured inconsistently (e.g. keyword categories outside the topic schema)."""


class InfeasibleSpecError(CollabMetricsError):
    """A synthetic community spec asks for more than the population allows."""
