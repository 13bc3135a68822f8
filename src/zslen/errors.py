"""Error types shared across the package."""

from __future__ import annotations


class InvalidArgumentError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling was exceeded.

    Carries the name of the bound so callers and reports can say which
    limit fired instead of silently truncating a computation.
    """

    def __init__(self, bound_name: str, limit: int, reached: int | None = None):
        self.bound_name = bound_name
        self.limit = limit
        self.reached = reached
        detail = f"{bound_name} limit of {limit} exceeded"
        if reached is not None:
            detail += f" (needed at least {reached})"
        super().__init__(detail)
