"""Dense integer polynomials with exact arbitrary-precision coefficients.

Coefficients are stored in ascending order: ``(a0, a1, ..., an)`` stands for
``an*x^n + ... + a1*x + a0``.  The zero polynomial is the single coefficient
``(0,)``; any other polynomial has a nonzero leading (last) coefficient.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError

__all__ = [
    "IntPoly",
    "parse_poly",
    "format_poly",
    "derivative",
    "taylor_shift",
    "length",
]


class IntPoly(namedtuple("IntPoly", "coeffs degree")):
    """Immutable dense polynomial over the integers.

    `degree` is the index of the last nonzero coefficient, -1 for the zero
    polynomial.  It is derived from `coeffs`, so `IntPoly(coeffs)` takes
    coeffs alone, and hashing, repr and pickling use coeffs alone.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        try:
            raw = tuple(coeffs)
        except TypeError:
            raise DomainError("coefficients must be ints, got %r" % (coeffs,)) from None
        if not raw:
            raise DomainError("a polynomial needs at least one coefficient")
        for c in raw:
            if type(c) is not int:
                raise DomainError("coefficients must be integers, got %r" % (c,))
        end = len(raw)
        while end > 1 and raw[end - 1] == 0:
            end -= 1
        coeffs = raw[:end]
        return tuple.__new__(cls, (coeffs, -1 if coeffs == (0,) else end - 1))

    def __repr__(self) -> str:
        return "IntPoly(coeffs=%r)" % (self.coeffs,)

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __getnewargs__(self):
        return (self.coeffs,)

    @classmethod
    def _make(cls, iterable):
        """Build from the coefficients by `__new__`, so `_make` and `_replace`
        check them and derive `degree` again; a `degree` given is ignored."""
        coeffs, _ = iterable
        return cls(coeffs)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        """Leading coefficient (0 only for the zero polynomial)."""
        return self.coeffs[-1]

    def __str__(self) -> str:
        return format_poly(self)


def _check_poly(caller: str, f) -> None:
    """DomainError unless f is an IntPoly: the one check of a polynomial argument."""
    if not isinstance(f, IntPoly):
        raise DomainError("%s needs an IntPoly, got %r" % (caller, f))


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated ascending coefficient form, e.g. ``"5,4,1"``."""
    if type(text) is not str:
        raise DomainError("parse_poly needs a str, got %r" % (text,))
    parts = text.split(",")
    try:
        coeffs = tuple(int(part.strip()) for part in parts)
    except ValueError as exc:
        raise DomainError("bad polynomial %r: %s" % (text, exc)) from None
    return IntPoly(coeffs)


def format_poly(f: IntPoly) -> str:
    """Serialize to the comma-separated ascending coefficient form."""
    _check_poly("format_poly", f)
    return ",".join(str(c) for c in f.coeffs)


def length(f: IntPoly) -> int:
    """Sum of absolute coefficients L(f).  The zero polynomial has no length."""
    _check_poly("length", f)
    if f.is_zero:
        raise DomainError("length of the zero polynomial is undefined")
    return sum(abs(c) for c in f.coeffs)


def derivative(f: IntPoly) -> IntPoly:
    """Formal derivative; defined for degree >= 1."""
    _check_poly("derivative", f)
    if f.degree < 1:
        raise DomainError("derivative needs degree >= 1")
    return IntPoly(tuple(i * c for i, c in enumerate(f.coeffs) if i >= 1))


def taylor_shift(f: IntPoly, s: int) -> IntPoly:
    """f(x+s), by `_taylor_shift` on the coefficients; s must be an int, not a bool."""
    _check_poly("taylor_shift", f)
    if type(s) is not int:
        raise DomainError("taylor_shift needs an int shift, got %r" % (s,))
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
