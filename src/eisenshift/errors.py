"""Exception types shared across the package."""

__all__ = ["DomainError", "BudgetError"]


class DomainError(ValueError):
    """An argument is outside the domain of the requested operation."""


class BudgetError(RuntimeError):
    """A work bound ran out before an answer.

    Raised when the plain-witness walk cannot split the coefficient gcd, when
    `decide_certified` exhausts its escalations or holds a budget that cannot
    grow, when a census box exceeds the enumeration cap, and when `euler_phi`
    or `mobius` cannot factor their argument.
    """
