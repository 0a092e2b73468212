"""Exception types shared across the package."""


class NlocalError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameterError(NlocalError, ValueError):
    """A constructor or CLI argument violates a documented constraint."""


class ConfigurationError(NlocalError, ValueError):
    """Inputs are mutually inconsistent (layout, plan, assignment, or model)."""


class ResourceLimitError(NlocalError, RuntimeError):
    """A computation would exceed a hard size cap."""
