"""Monte Carlo's verdict decision against the certificate search, the
paper's families of irreducible polynomials that are not shifted Eisenstein,
and the bound on the shift a YES needs."""

from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenshift import (
    DEFAULT_BUDGET,
    FactorBudget,
    IntPoly,
    Verdict,
    decide_certified,
    discriminant,
    evaluate,
    iroot,
    is_eisenstein,
    max_shift_bound,
    sieve_primes,
    shifted_eisenstein,
)
from eisenshift.eisenstein import _shifted_verdict

HEIGHTS = (3, 30, 10**6)
BUDGETS = (DEFAULT_BUDGET, FactorBudget(2, 0))
PLANT_PRIMES = (3, 5, 7, 11, 13)
# Exponents (i, j) of the planted part p^i * q^j.
SHAPES = ((1, 0), (2, 0), (3, 0), (4, 0), (2, 2), (2, 3))
# Times 2, or times a prime that can be left as a rest above the trial bound.
COFACTORS = (1, 2, 17, 29, 101, 1009)


@st.composite
def quadratics(draw):
    """Quadratics from the box |a_i| <= H, half of them planted.

    A planted f = a_2*(x + k)^2 + e has D = -4*a_2*e, with
    e = +-p^i * q^j * c; its coefficients may leave the box.
    """
    height = draw(st.sampled_from(HEIGHTS))
    coeff = st.integers(-height, height)
    a2 = draw(coeff.filter(bool))
    if draw(st.booleans()):
        return IntPoly((draw(coeff), draw(coeff), a2))
    p, q = draw(st.lists(st.sampled_from(PLANT_PRIMES), min_size=2, max_size=2, unique=True))
    i, j = draw(st.sampled_from(SHAPES))
    e = draw(st.sampled_from((1, -1))) * p**i * q**j * draw(st.sampled_from(COFACTORS))
    k = draw(st.integers(-2, 2))
    return IntPoly((a2 * k * k + e, 2 * a2 * k, a2))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(quadratics())
# r = |D| without the primes of 2*a_2 is 7^4 * 101: trial division to
# T = 11 yields the rest 101 > T, which qualifies.
@example(IntPoly((-242500, 2, 1)))
# Only 2 qualifies: f(x+1) = x^2 + 4x + 22.
@example(IntPoly((19, 2, 1)))
# D = -300: 3 divides D once but also a_2, and r = 25.
@example(IntPoly((25, 0, 3)))
# r = 27, a cube, and r = 3^2 * 5^3, powerful but neither square nor cube.
@example(IntPoly((27, 0, 1)))
@example(IntPoly((-1125, 0, 1)))
def test_quadratic_verdict_matches_the_certificate_search(f):
    for budget in BUDGETS:
        verdict, plain = _shifted_verdict(f, budget)
        assert plain == is_eisenstein(f), f
        decision = shifted_eisenstein(f, budget)
        if decision.verdict is Verdict.NO_HEURISTIC:
            assert verdict in (Verdict.NO_HEURISTIC, decide_certified(f).verdict), (f, budget)
        else:
            assert verdict is decision.verdict, (f, budget, decision)


def test_the_paper_families_are_never_shifted_eisenstein():
    # n = 2: x^2 + x + (3^(2j+1) + 1)/4 has D = -3^(2j+1) < 0, so it has no
    # real root, and D is powerful.
    for j in range(1, 30):
        f = IntPoly(((3 ** (2 * j + 1) + 1) // 4, 1, 1))
        assert 1 - 4 * f.coeffs[0] == -(3 ** (2 * j + 1))
        assert all(evaluate(f, x) for x in (1, -1, 3, -3)), f
        assert _shifted_verdict(f, DEFAULT_BUDGET) == (Verdict.NO_CERTIFIED, False), f
        assert decide_certified(f).verdict is Verdict.NO_CERTIFIED, f
    # n >= 3: x^n - x + p has no rational root, as f(+-1) and f(+-p) are nonzero.
    for n in range(3, 16):
        for p in sieve_primes(1223)[2:]:
            f = IntPoly((p, -1) + (0,) * (n - 2) + (1,))
            assert all(evaluate(f, x) for x in (1, -1, p, -p)), f
            assert _shifted_verdict(f, DEFAULT_BUDGET) == (Verdict.NO_CERTIFIED, False), f
            assert decide_certified(f).verdict is Verdict.NO_CERTIFIED, f


def test_every_certificate_shift_is_within_the_discriminant_bound():
    # f(x+s) Eisenstein at p makes p^(n-1) divide D, so p <= |D|^(1/(n-1)),
    # and the residue of s nearest 0, s or s - p, has |s| <= p/2.
    attained = set()
    for n, height in ((2, 8), (3, 3), (4, 2), (5, 1)):
        lows = range(-height, height + 1)
        for body in product(lows, repeat=n):
            for lead in lows:
                if not lead:
                    continue
                f = IntPoly(body + (lead,))
                decision = shifted_eisenstein(f)
                if decision.verdict is not Verdict.YES:
                    continue
                s, p = decision.certificate.shift, decision.certificate.prime
                bound = iroot(abs(discriminant(f)), n - 1)[0] // 2
                assert min(s, p - s) <= bound <= max_shift_bound(f), (f, decision)
                if min(s, p - s) == bound:
                    attained.add(n)
    # The bound is attained: -x^2 - x - 8 has D = -31 and the certificate
    # (15, 31); x^3 + 2x^2 - x - 1 has D = 7^2 and (4, 7), so s - p = -3.
    assert attained == {2, 3}
