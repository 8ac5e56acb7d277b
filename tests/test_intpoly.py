"""Integer polynomial container and exact coefficient operations."""

import math
import pickle
import random

import pytest

from eisenshift import (
    DomainError,
    IntPoly,
    format_poly,
    length,
    parse_poly,
    taylor_shift,
)
from eisenshift.intpoly import derivative

from factor_first import evaluate


def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0, 0)).coeffs == (0,)
    assert IntPoly((0,)).coeffs == (0,)
    assert IntPoly((7,)).coeffs == (7,)


def test_zero_polynomial_properties():
    z = IntPoly((0,))
    assert z.is_zero
    assert z.degree == -1
    assert z.leading == 0
    with pytest.raises(DomainError):
        length(z)


def test_degree_and_leading():
    f = IntPoly((5, 4, 1))
    assert f.degree == 2
    assert f.leading == 1
    assert not f.is_zero


def test_stored_degree_leaves_equality_hash_repr_and_pickling_alone():
    for coeffs, degree in (((0, 0, 0), -1), ((0,), -1), ((7,), 0), ((1, 2, 0, 0), 1)):
        assert IntPoly(coeffs).degree == degree
    f = IntPoly((1, 2, 0))
    assert repr(f) == "IntPoly(coeffs=(1, 2))"
    assert f == IntPoly((1, 2)) and hash(f) == hash((f.coeffs,))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        g = pickle.loads(pickle.dumps(f, protocol))
        assert g == f and g.degree == 1 and hash(g) == hash(f)
    with pytest.raises(TypeError):
        IntPoly((1, 2), degree=1)
    with pytest.raises(AttributeError):
        f.degree = 2
    assert f.degree == 1 and f.coeffs == (1, 2)
    g = f._replace(coeffs=(3, 0, 0))
    assert g == IntPoly((3,)) and g.degree == 0
    with pytest.raises(DomainError):
        f._replace(coeffs=(1, 2.5))


def test_rejects_bad_coefficients():
    with pytest.raises(DomainError):
        IntPoly(())
    with pytest.raises(DomainError):
        IntPoly((1, 2.5))
    with pytest.raises(DomainError):
        IntPoly((1, "2"))
    with pytest.raises(DomainError):
        IntPoly((True, 1))
    with pytest.raises(DomainError):
        IntPoly((1, False))


def test_parse_and_format_round_trip():
    f = parse_poly("5,4,1")
    assert f.coeffs == (5, 4, 1)
    assert format_poly(f) == "5,4,1"
    assert parse_poly(" 5 , -4 , 1 ").coeffs == (5, -4, 1)
    assert str(parse_poly("0")) == "0"
    with pytest.raises(DomainError):
        parse_poly("1,x,3")
    with pytest.raises(DomainError):
        parse_poly("")


def test_parse_normalizes_like_constructor():
    assert parse_poly("1,2,0").coeffs == (1, 2)


def test_length():
    assert length(IntPoly((-5, 4, -1))) == 10


def test_evaluate_matches_power_sum():
    # The tests' Horner helper, which the Taylor-shift identity below relies on.
    rng = random.Random(20)
    for _ in range(300):
        deg = rng.randrange(0, 7)
        coeffs = tuple(rng.randint(-50, 50) for _ in range(deg)) + (
            rng.choice([-3, -1, 1, 2, 9]),
        )
        f = IntPoly(coeffs)
        x = rng.randint(-30, 30)
        direct = sum(c * x**i for i, c in enumerate(f.coeffs))
        assert evaluate(f, x) == direct


def test_derivative():
    assert derivative(IntPoly((5, 4, 1))).coeffs == (4, 2)
    assert derivative(IntPoly((0, 0, 0, 2))).coeffs == (0, 0, 6)
    with pytest.raises(DomainError):
        derivative(IntPoly((3,)))
    with pytest.raises(DomainError):
        derivative(IntPoly((0,)))


def test_taylor_shift_matches_binomial_expansion():
    rng = random.Random(21)
    for _ in range(300):
        deg = rng.randrange(1, 7)
        coeffs = tuple(rng.randint(-40, 40) for _ in range(deg)) + (
            rng.choice([-2, 1, 3]),
        )
        f = IntPoly(coeffs)
        s = rng.randint(-15, 15)
        n = f.degree
        expected = [0] * (n + 1)
        for i, c in enumerate(f.coeffs):
            # c * (x+s)^i spread over the lower coefficients
            for j in range(i + 1):
                expected[j] += c * math.comb(i, j) * s ** (i - j)
        assert taylor_shift(f, s).coeffs == tuple(expected)


def test_taylor_shift_compositions():
    f = IntPoly((3, -1, 4, 1))
    assert taylor_shift(f, 0) == f
    assert taylor_shift(taylor_shift(f, 5), -5) == f
    assert taylor_shift(taylor_shift(f, 2), 3) == taylor_shift(f, 5)


def test_taylor_shift_evaluation_identity():
    rng = random.Random(22)
    for _ in range(200):
        coeffs = tuple(rng.randint(-20, 20) for _ in range(4)) + (1,)
        f = IntPoly(coeffs)
        s = rng.randint(-10, 10)
        x = rng.randint(-10, 10)
        assert evaluate(taylor_shift(f, s), x) == evaluate(f, x + s)