"""Error types shared across the package.

Everything derives from ValueError or RuntimeError so callers that do not
care about the fine distinctions can catch the built-ins.
"""


class DimensionUnsupportedError(ValueError):
    """Ambient dimension outside the supported range (most operations need n >= 3)."""


class ShapeMismatchError(ValueError):
    """Array/multi-index shapes inconsistent with the declared ambient dimension."""


class SamplingFailureError(RuntimeError):
    """An integrand returned a non-finite value during Monte Carlo sampling."""


class UnderdeterminedDataError(ValueError):
    """Too few data points for the requested fit."""


class ConfigurationError(ValueError):
    """Invalid run configuration (sample counts, tolerances, missing inputs)."""


class NumericalError(RuntimeError):
    """An identity that holds exactly failed by more than float rounding explains."""


class ResourceGuardError(RuntimeError):
    """A computation was refused because it would exceed the configured size bound."""


class ParseError(ValueError):
    """Malformed input file; the message names the offending line or field."""


class NegativityWarning(UserWarning):
    """A reconstructed operator has negative eigenvalues (reported, not fatal)."""
