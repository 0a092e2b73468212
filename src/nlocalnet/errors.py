"""Exception types shared across the package."""


class NlocalError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameterError(NlocalError, ValueError):
    """An argument breaks a constraint, or inputs contradict each other or the layout."""


class ResourceLimitError(NlocalError, RuntimeError):
    """A computation would exceed a hard size cap."""
