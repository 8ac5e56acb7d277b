"""Resultants, discriminants, and size bounds, checked against root products."""

import random

import pytest

from eisenshift import (
    DomainError,
    IntPoly,
    discriminant,
    mahler_bound,
    max_shift_bound,
    principal_subresultant,
    resultant,
    sylvester_matrix,
    taylor_shift,
)
from eisenshift.algebra import bareiss_determinant
from eisenshift.intpoly import derivative, length


def _random_poly(rng, max_deg=6, bound=30):
    deg = rng.randrange(1, max_deg + 1)
    coeffs = tuple(rng.randint(-bound, bound) for _ in range(deg))
    lead = rng.randint(-bound, bound)
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return IntPoly(coeffs + (lead,))


def _mul(f: IntPoly, g: IntPoly) -> IntPoly:
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPoly(tuple(out))


def test_sylvester_matrix_shape_and_linear_case():
    f = IntPoly((3, 2))  # 2x + 3
    g = IntPoly((-1, 5))  # 5x - 1
    m = sylvester_matrix(f, g)
    assert m == [[2, 3], [5, -1]]
    # res(a1 x + a0, b1 x + b0) = a1*b0 - a0*b1
    assert resultant(f, g) == 2 * (-1) - 3 * 5


def test_sylvester_matrix_rejects_bad_inputs():
    with pytest.raises(DomainError):
        sylvester_matrix(IntPoly((0,)), IntPoly((1, 1)))
    with pytest.raises(DomainError):
        sylvester_matrix(IntPoly((2,)), IntPoly((3,)))


def test_bareiss_determinant_known_values():
    assert bareiss_determinant([[5]]) == 5
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    # singular
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    # needs a pivot swap
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    with pytest.raises(DomainError):
        bareiss_determinant([])
    with pytest.raises(DomainError):
        bareiss_determinant([[1, 2]])


def test_bareiss_determinant_random_vs_expansion():
    rng = random.Random(30)

    def minor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            sign = -1 if j % 2 else 1
            total += sign * m[0][j] * minor_det(sub)
        return total

    for _ in range(200):
        size = rng.randrange(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert bareiss_determinant(m) == minor_det(m)


def _from_roots(lead, roots):
    """lead * prod (x - r) over the given integer roots."""
    f = IntPoly((lead,))
    for r in roots:
        f = _mul(f, IntPoly((-r, 1)))
    return f


def _random_roots(rng, max_deg):
    """Small integer roots; a narrow range makes repeated roots common."""
    spread = rng.choice([2, 6, 40])
    return [rng.randint(-spread, spread) for _ in range(rng.randrange(1, max_deg + 1))]


def _nonzero(rng, bound):
    return rng.choice([x for x in range(-bound, bound + 1) if x])


def test_resultant_matches_root_product():
    # Res(f, g) = a^n * b^m * prod (r_i - s_j) for f = a*prod(x - r_i) of
    # degree m and g = b*prod(x - s_j) of degree n.
    rng = random.Random(31)
    for _ in range(2000):
        a, b = _nonzero(rng, 5), _nonzero(rng, 5)
        rs, ss = _random_roots(rng, 6), _random_roots(rng, 6)
        expected = a ** len(ss) * b ** len(rs)
        for r in rs:
            for s in ss:
                expected *= r - s
        assert resultant(_from_roots(a, rs), _from_roots(b, ss)) == expected


def test_discriminant_matches_root_product():
    # disc(f) = a^(2m-2) * prod_{i<j} (r_i - r_j)^2 for f = a*prod(x - r_i).
    rng = random.Random(42)
    for _ in range(2000):
        a = _nonzero(rng, 5)
        rs = _random_roots(rng, 7)
        if len(rs) < 2:
            rs.append(rng.choice(rs + [rng.randint(-9, 9)]))
        expected = a ** (2 * len(rs) - 2)
        for i, r in enumerate(rs):
            for s in rs[i + 1 :]:
                expected *= (r - s) ** 2
        assert discriminant(_from_roots(a, rs)) == expected


def test_resultant_swap_sign():
    rng = random.Random(32)
    for _ in range(400):
        f = _random_poly(rng, max_deg=5, bound=20)
        g = _random_poly(rng, max_deg=5, bound=20)
        m, n = f.degree, g.degree
        sign = -1 if (m * n) % 2 else 1
        assert resultant(g, f) == sign * resultant(f, g)


def test_resultant_multiplicative_in_second_argument():
    rng = random.Random(33)
    for _ in range(300):
        f = _random_poly(rng, max_deg=4, bound=12)
        g = _random_poly(rng, max_deg=3, bound=12)
        h = _random_poly(rng, max_deg=3, bound=12)
        assert resultant(f, _mul(g, h)) == resultant(f, g) * resultant(f, h)


def test_resultant_zero_iff_common_root():
    rng = random.Random(34)
    for _ in range(300):
        root = rng.randint(-10, 10)
        common = IntPoly((-root, 1))
        f = _mul(common, _random_poly(rng, max_deg=3, bound=10))
        g = _mul(common, _random_poly(rng, max_deg=3, bound=10))
        assert resultant(f, g) == 0


def test_resultant_constant_cases():
    f = IntPoly((3,))
    g = IntPoly((1, 0, 2))  # 2x^2 + 1
    assert resultant(f, g) == 3**2
    assert resultant(g, f) == 3**2
    with pytest.raises(DomainError):
        resultant(IntPoly((0,)), g)


def test_principal_subresultant_j0_equals_resultant():
    rng = random.Random(35)
    for _ in range(300):
        f = _random_poly(rng, max_deg=5, bound=15)
        g = _random_poly(rng, max_deg=5, bound=15)
        if f.degree + g.degree < 1:
            continue
        assert principal_subresultant(f, g, 0) == resultant(f, g)


def test_principal_subresultant_detects_gcd_degree():
    rng = random.Random(36)
    for _ in range(200):
        root = rng.randint(-8, 8)
        common = IntPoly((-root, 1))
        sq = _mul(common, common)
        f = _mul(sq, _random_poly(rng, max_deg=2, bound=8))
        fp = derivative(f)
        # (x - root)^2 | f forces deg gcd(f, f') >= 1, so S_0 = 0 while the
        # double root also kills nothing above j = deg gcd.
        assert principal_subresultant(f, fp, 0) == 0


def test_principal_subresultant_index_bounds():
    f = IntPoly((1, 1, 1))
    g = IntPoly((1, 1))
    with pytest.raises(DomainError):
        principal_subresultant(f, g, -1)
    with pytest.raises(DomainError):
        principal_subresultant(f, g, 2)


def test_discriminant_quadratic_formula():
    rng = random.Random(37)
    for _ in range(1000):
        a = rng.choice([x for x in range(-20, 21) if x])
        b = rng.randint(-20, 20)
        c = rng.randint(-20, 20)
        f = IntPoly((c, b, a))
        assert discriminant(f) == b * b - 4 * a * c


def test_discriminant_depressed_cubic_formula():
    rng = random.Random(38)
    for _ in range(1000):
        p = rng.randint(-30, 30)
        q = rng.randint(-30, 30)
        f = IntPoly((q, p, 0, 1))
        assert discriminant(f) == -4 * p**3 - 27 * q**2


def test_discriminant_shift_invariant():
    rng = random.Random(39)
    for _ in range(500):
        f = _random_poly(rng, max_deg=5, bound=20)
        if f.degree < 2:
            continue
        s = rng.randint(-12, 12)
        assert discriminant(taylor_shift(f, s)) == discriminant(f)


def test_discriminant_zero_on_repeated_root():
    rng = random.Random(40)
    for _ in range(200):
        root = rng.randint(-10, 10)
        lin = IntPoly((-root, 1))
        f = _mul(_mul(lin, lin), _random_poly(rng, max_deg=2, bound=10))
        assert discriminant(f) == 0


def test_discriminant_needs_degree_two():
    with pytest.raises(DomainError):
        discriminant(IntPoly((1, 1)))


def test_size_bounds_need_degree_two():
    for bound in (mahler_bound, max_shift_bound):
        with pytest.raises(DomainError):
            bound(IntPoly((1, 1)))


def test_mahler_bound_dominates_discriminant():
    rng = random.Random(41)
    for _ in range(1000):
        f = _random_poly(rng, max_deg=5, bound=25)
        if f.degree < 2:
            continue
        assert abs(discriminant(f)) <= mahler_bound(f)


def test_max_shift_bound_values():
    # ceil(n^(n/(n-1))): 4 for n=2, 6 for n=3, 7 for n=4
    f2 = IntPoly((1, 1, 1))
    assert max_shift_bound(f2) == 4 * length(f2) ** 2
    f3 = IntPoly((1, 1, 1, 1))
    assert max_shift_bound(f3) == 6 * length(f3) ** 2
    f4 = IntPoly((1, 1, 1, 1, 1))
    assert max_shift_bound(f4) == 7 * length(f4) ** 2