"""Batch analytics for dyadic content-creator collaborations.

Quantifies collaboration synergy (two-way Shapley contributions over
viewership), creator network position (collaboration graph closeness),
audience attention diversity (commenter entropy), and audience discourse
(sentiment and topic mix) over video/comment corpora, with a seeded
synthetic-community generator for end-to-end validation.
"""

__version__ = "0.1.0"

# The bundled community presets of ``simgen.preset``, here so that naming them imports no generator.
PRESET_NAMES = ("valorant", "animal-crossing", "dead-by-daylight")

from collabmetrics.errors import (
    CollabMetricsError,
    ConfigurationError,
    InfeasibleSpecError,
    ValidationError,
)

__all__ = [
    "CollabMetricsError",
    "ConfigurationError",
    "InfeasibleSpecError",
    "ValidationError",
    "PRESET_NAMES",
    "__version__",
]
