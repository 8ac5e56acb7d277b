"""Exact resultants, discriminants, and size bounds for integer polynomials.

The resultant and every principal subresultant coefficient are determinants
of (sub)matrices of the Sylvester matrix, computed by fraction-free Bareiss
elimination, so all of them are exact over the integers.  The test suite
checks them against products over the roots of polynomials built from
integer roots.
"""

from __future__ import annotations

from .errors import DomainError
from .intpoly import IntPoly, derivative, length
from .primes import iroot

__all__ = [
    "sylvester_matrix",
    "bareiss_determinant",
    "resultant",
    "principal_subresultant",
    "discriminant",
    "mahler_bound",
    "max_shift_bound",
]


def _sylvester_rows(f: IntPoly, g: IntPoly, j: int) -> list[list[int]]:
    """Sylvester matrix of f and g without the last j rows of each coefficient
    block and the last 2j columns (descending coefficients)."""
    if f.is_zero or g.is_zero:
        raise DomainError("the Sylvester matrix needs nonzero polynomials")
    m, n = f.degree, g.degree
    width = m + n - 2 * j
    if j < 0 or j > min(m, n) or width < 1:
        raise DomainError(
            "no Sylvester submatrix of index %d for degrees %d and %d" % (j, m, n)
        )
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = [([0] * i + fd + [0] * width)[:width] for i in range(n - j)]
    rows += [([0] * i + gd + [0] * width)[:width] for i in range(m - j)]
    return rows


def sylvester_matrix(f: IntPoly, g: IntPoly) -> list[list[int]]:
    """Sylvester matrix of f and g, size (deg f + deg g), descending coefficients."""
    return _sylvester_rows(f, g, 0)


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination.

    Every intermediate entry is an integer minor of the input, so there is no
    fraction growth; each division below is exact by Sylvester's identity.
    """
    size = len(matrix)
    if size == 0 or any(len(row) != size for row in matrix):
        raise DomainError("bareiss_determinant needs a nonempty square matrix")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, size):
                num = row_i[j] * pivot - head * row_k[j]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division must be exact"
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of f and g: the Bareiss determinant of their Sylvester matrix."""
    return principal_subresultant(f, g, 0)


def principal_subresultant(f: IntPoly, g: IntPoly, j: int) -> int:
    """j-th principal subresultant coefficient of (f, g).

    Determinant of the Sylvester matrix with the last j rows of each
    coefficient block and the last 2j columns removed; j = 0 is the resultant.
    """
    return bareiss_determinant(_sylvester_rows(f, g, j))


def discriminant(f: IntPoly) -> int:
    """Discriminant (-1)^(n(n-1)/2) * Res(f, f') / lc(f), exact."""
    n = f.degree
    if n < 2:
        raise DomainError("discriminant needs degree >= 2")
    res = resultant(f, derivative(f))
    q, rem = divmod(res, f.leading)
    assert rem == 0, "Res(f, f') must be divisible by the leading coefficient"
    if (n * (n - 1) // 2) % 2:
        return -q
    return q


def mahler_bound(f: IntPoly) -> int:
    """Bound n^n * L(f)^(2n-2) on |discriminant(f)|."""
    n = f.degree
    if n < 2:
        raise DomainError("mahler_bound needs degree >= 2")
    return n**n * length(f) ** (2 * n - 2)


def max_shift_bound(f: IntPoly) -> int:
    """Scan bound ceil(n^(n/(n-1))) * L(f)^2 covering every possible shift."""
    n = f.degree
    if n < 2:
        raise DomainError("max_shift_bound needs degree >= 2")
    root, exact = iroot(n**n, n - 1)
    return (root if exact else root + 1) * length(f) ** 2
