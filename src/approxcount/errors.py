"""Exceptions shared across the package.

The CLI maps these to stable exit codes: bad input is 2, a blown resource
cap is 3, and any other exception is an internal error, 4. Verification
failures are not exceptions; they are reported data.
"""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class MonotonicityViolation(RuntimeError):
    """Values that must be monotone, an oracle's or a step function's, are out of order."""


class TooLarge(RuntimeError):
    """A run would pass one of its configured caps, such as an exact oracle's
    table size or the breakpoints an approximate count keeps."""
