"""Shared exception types."""


class EnumerationCapError(RuntimeError):
    """An exhaustive search would exceed its configured size cap.

    Raised instead of silently falling back to sampling: every result in
    this package is exact, so a search that cannot be run exactly fails
    loudly.
    """
