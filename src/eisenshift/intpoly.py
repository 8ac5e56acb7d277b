"""Dense integer polynomials with exact arbitrary-precision coefficients.

Coefficients are stored in ascending order: ``(a0, a1, ..., an)`` stands for
``an*x^n + ... + a1*x + a0``.  The zero polynomial is the single coefficient
``(0,)``; any other polynomial has a nonzero leading (last) coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "IntPoly",
    "parse_poly",
    "format_poly",
    "evaluate",
    "derivative",
    "taylor_shift",
    "height",
    "length",
]


@dataclass(frozen=True)
class IntPoly:
    """Immutable dense polynomial over the integers."""

    coeffs: tuple[int, ...]
    # Index of the last nonzero coefficient; -1 for the zero polynomial.
    # Derived from coeffs, so equality, hashing and repr ignore it.
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = tuple(self.coeffs)
        if not raw:
            raise DomainError("a polynomial needs at least one coefficient")
        for c in raw:
            if type(c) is not int:
                raise DomainError("coefficients must be integers, got %r" % (c,))
        end = len(raw)
        while end > 1 and raw[end - 1] == 0:
            end -= 1
        coeffs = raw[:end]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degree", -1 if coeffs == (0,) else end - 1)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        """Leading coefficient (0 only for the zero polynomial)."""
        return self.coeffs[-1]

    def __str__(self) -> str:
        return format_poly(self)


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated ascending coefficient form, e.g. ``"5,4,1"``."""
    parts = text.split(",")
    try:
        coeffs = tuple(int(part.strip()) for part in parts)
    except ValueError as exc:
        raise DomainError("bad polynomial %r: %s" % (text, exc)) from None
    return IntPoly(coeffs)


def format_poly(f: IntPoly) -> str:
    """Serialize to the comma-separated ascending coefficient form."""
    return ",".join(str(c) for c in f.coeffs)


def height(f: IntPoly) -> int:
    """Max absolute coefficient H(f).  The zero polynomial has no height."""
    if f.is_zero:
        raise DomainError("height of the zero polynomial is undefined")
    return max(abs(c) for c in f.coeffs)


def length(f: IntPoly) -> int:
    """Sum of absolute coefficients L(f).  The zero polynomial has no length."""
    if f.is_zero:
        raise DomainError("length of the zero polynomial is undefined")
    return sum(abs(c) for c in f.coeffs)


def evaluate(f: IntPoly, x: int) -> int:
    """Exact value f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def derivative(f: IntPoly) -> IntPoly:
    """Formal derivative; defined for degree >= 1."""
    if f.degree < 1:
        raise DomainError("derivative needs degree >= 1")
    return IntPoly(tuple(i * c for i, c in enumerate(f.coeffs) if i >= 1))


def taylor_shift(f: IntPoly, s: int) -> IntPoly:
    """f(x+s), by `_taylor_shift` on the coefficients."""
    return IntPoly(_taylor_shift(f.coeffs, s))


def _taylor_shift(coeffs: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Coefficients of f(x+s) from those of f, by repeated synthetic division.

    Runs in O(n^2) coefficient operations and never materializes binomial
    tables, so coefficient growth is the only cost.
    """
    b = list(coeffs)
    n = len(b)
    # After pass i, b[i] is the coefficient of x^i in f(x+s).
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] += s * b[j + 1]
    return tuple(b)
