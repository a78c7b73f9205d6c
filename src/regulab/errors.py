"""Exception types shared across the toolkit."""


class RegulabError(Exception):
    """Base class for all toolkit errors."""


class InputError(RegulabError, ValueError):
    """Invalid or inconsistent user input (dimensions, parameters, modes)."""


class DimensionMismatchError(InputError):
    """Vector or matrix dimensions do not match the declared spaces."""


class EmptySetError(RegulabError):
    """An operation requiring a nonempty set received an empty one."""


class ResourceCapError(RegulabError):
    """A scan would exceed the configured point-count cap."""

    def __init__(self, requested, cap):
        self.requested = requested
        self.cap = cap
        super().__init__(f"scan of {requested} points exceeds cap {cap}")


class NumericError(RegulabError):
    """A numerical routine failed, or its answer failed its check."""
