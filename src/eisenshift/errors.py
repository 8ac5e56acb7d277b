"""Exception types shared across the package."""

__all__ = ["DomainError", "BudgetError"]


class DomainError(ValueError):
    """An argument is outside the domain of the requested operation."""


class BudgetError(RuntimeError):
    """A configured work bound (scan cap, enumeration cap, ...) was exceeded."""
