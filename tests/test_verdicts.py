"""Monte Carlo's verdict decision against the certificate search and its own
trial-division form at every degree, the one shift each prime allows, the
paper's families of irreducible polynomials that are not shifted Eisenstein,
and the bound on the shift a YES needs."""

from itertools import product

import eisenshift.primes as primes_module

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenshift import (
    DEFAULT_BUDGET,
    FactorBudget,
    IntPoly,
    Verdict,
    decide_certified,
    discriminant,
    iroot,
    is_eisenstein,
    is_eisenstein_with,
    max_shift_bound,
    sieve_primes,
    shifted_eisenstein,
    taylor_shift,
)
from eisenshift.eisenstein import (
    _divides_once,
    _local_gcd,
    _local_verdict,
    _shift_at,
    _shifted_verdict,
    _strip_primes_of,
)
from factor_first import evaluate
from local_rule import trial_divides_once, trial_local_verdict

HEIGHTS = (3, 30, 10**6)
BUDGETS = (DEFAULT_BUDGET, FactorBudget(2, 0))
ORACLE_BUDGETS = BUDGETS + (FactorBudget(2, 1), FactorBudget(30, 0))
PLANT_PRIMES = (3, 5, 7, 11, 13)
# Exponents (i, j) of the planted part p^i * q^j.
SHAPES = ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (2, 2), (2, 3))
# Times 2, or times a prime that can be left as a rest above the trial bound.
COFACTORS = (1, 2, 17, 29, 101, 1009)
LOCAL_DEGREES = (3, 4, 5, 6, 8, 9)


@st.composite
def planted_parts(draw):
    """(p, p^i * q^j) for distinct primes p, q from PLANT_PRIMES."""
    p, q = draw(st.lists(st.sampled_from(PLANT_PRIMES), min_size=2, max_size=2, unique=True))
    i, j = draw(st.sampled_from(SHAPES))
    return p, p**i * q**j


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
    _, part = draw(planted_parts())
    e = draw(st.sampled_from((1, -1))) * part * draw(st.sampled_from(COFACTORS))
    k = draw(st.integers(-2, 2))
    return IntPoly((a2 * k * k + e, 2 * a2 * k, a2))


@st.composite
def higher_degree(draw):
    """Degree n >= 3 polynomials from the box |a_i| <= H, half of them planted.

    A planted f is F(x-k) with F = a_n*x^n + P*g + P^2*r, deg g, r < n and
    P = p^i * q^j, so P divides the G of `_local_gcd` wherever p and q do not
    divide n*a_n.  Half the time the constant term of F, f(k), is multiplied
    by p, so that p^2 divides f(k) where p divides G once.
    """
    n = draw(st.sampled_from(LOCAL_DEGREES))
    height = draw(st.sampled_from(HEIGHTS))
    coeff = st.integers(-height, height)
    lead = draw(coeff.filter(bool))
    if draw(st.booleans()):
        return IntPoly(tuple(draw(coeff) for _ in range(n)) + (lead,))
    p, part = draw(planted_parts())
    low = [part * draw(coeff) + part * part * draw(coeff) for _ in range(n)]
    low[0] *= draw(st.sampled_from((1, p)))
    return taylor_shift(IntPoly(tuple(low) + (lead,)), -draw(st.integers(-2, 2)))


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.one_of(quadratics(), higher_degree()))
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
# n = 3, G = 35 and T = 2: under FactorBudget(2, 0) the search leaves 35 to
# rho, which has no steps, but the rest 35 is neither square nor cube, and
# f(x+4) is Eisenstein at 5.
@example(IntPoly((1, 8, -2, 6)))
# n = 3, G = 5, but h_0 = 27 * 5^2: 5^2 divides f(0), so G' = 1.
@example(IntPoly((25, 5, 0, 1)))
# n = 3, G' = 11^2 * 13^3: trial division to T = 12 leaves the cube 13^3.
@example(IntPoly((11**2 * 13**3, 11**2 * 13**3, 0, 1)))
def test_local_verdict_matches_the_certificate_search(f):
    # The rule also gives the verdicts of its trial-division form, which
    # finds the prime that divides G' once.
    for budget in ORACLE_BUDGETS:
        assert _local_verdict(f.coeffs, budget) == trial_local_verdict(f.coeffs, budget), (f, budget)
    for budget in BUDGETS:
        verdict, plain = _shifted_verdict(f.coeffs, budget)
        assert plain == is_eisenstein(f), f
        decision = shifted_eisenstein(f, budget)
        if decision.verdict is Verdict.NO_HEURISTIC:
            # The rule certifies wherever its trial bound fits the budget.
            if _local_verdict(f.coeffs, budget) is None:
                assert verdict is Verdict.NO_HEURISTIC, (f, budget)
            else:
                assert verdict is decide_certified(f).verdict, (f, budget)
        else:
            assert verdict is decision.verdict, (f, budget, decision)


def test_local_verdict_gives_up_exactly_at_the_fifth_power_of_the_bound():
    # Under trial bound B = 2 the rule decides G' < 3^5 = 243 and hands
    # G' >= 243 to the certificate search.
    budget = FactorBudget(2, 0)
    cases = {
        # n = 2, G' = |D| = 241, a prime.
        IntPoly((-60, 1, 1)): (241, Verdict.YES),
        # n = 3, G' = 242 = 2 * 11^2: f(x-1) = x^3 + 242x + 242 is
        # Eisenstein at 2; f itself is not.
        taylor_shift(IntPoly((242, 242, 0, 1)), 1): (242, Verdict.YES),
        # n = 2, G' = |D| = 3^5, from the paper's family.
        IntPoly((61, 1, 1)): (243, None),
        # n = 4, G' = 3^5: G is the odd part of gcd(a_2, a_1, a_0) and
        # h_0 / G = 4^4 has only the prime 2.
        IntPoly((243, 243, 243, 0, 1)): (243, None),
    }
    for f, (g_stripped, expected) in cases.items():
        g, h0 = _local_gcd(f.coeffs)
        assert (g if h0 is None else _strip_primes_of(g, h0 // g)) == g_stripped, f
        assert not is_eisenstein(f), f
        assert _local_verdict(f.coeffs, budget) is expected, f
        assert trial_local_verdict(f.coeffs, budget) is expected, f
    # One step up, B = 3, the rule decides both G' = 3^5: 3 divides it more
    # than once and there is no rest, and neither has a working prime of n.
    for f in (IntPoly((61, 1, 1)), IntPoly((243, 243, 243, 0, 1))):
        assert _local_verdict(f.coeffs, FactorBudget(3, 0)) is Verdict.NO_CERTIFIED, f
        assert decide_certified(f).verdict is Verdict.NO_CERTIFIED, f


def test_local_verdict_gives_up_past_the_prime_table_cap():
    # x^2 + x + 2^116 has G' = -D = 2^118 - 1, below (B+1)^5 for B = 2^24,
    # but its 118 bits ask for the primes up to b = 2^ceil(118/5) = 2^24,
    # whose product lies past the prime table's cap.
    f = IntPoly((2**116, 1, 1))
    g = 2**118 - 1
    assert _local_gcd(f.coeffs) == (g, None)
    assert g < (2**24 + 1) ** 5 and 2**24 > primes_module._SIEVE_CACHE_CAP
    assert _local_verdict(f.coeffs, FactorBudget(2**24, 0)) is None


# Primes below and past the default trial bound 10^5; p^4 and p^2*q^2 of
# them, times 4, stay below (10^5 + 1)^5.
ONCE_PRIMES = (2, 3, 5, 7, 13, 101, 99991, 100003, 499979)


@st.composite
def once_cases(draw):
    """(g, budget): p, p^2, p^3, p^4, p^2*q^2 or p*q for primes from
    ONCE_PRIMES, times 1, 2 or 4, under the default budget; or g within 40 of
    (B+1)^5 under the trial bound B <= 12."""
    if draw(st.booleans()):
        bound = draw(st.integers(0, 12))
        g = draw(st.integers(max(1, (bound + 1) ** 5 - 40), (bound + 1) ** 5 + 40))
        return g, FactorBudget(bound, 0)
    p, q = draw(st.lists(st.sampled_from(ONCE_PRIMES), min_size=2, max_size=2, unique=True))
    g = draw(st.sampled_from((p, p**2, p**3, p**4, p * p * q * q, p * q)))
    return g * draw(st.sampled_from((1, 2, 4))), DEFAULT_BUDGET


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(once_cases())
# Both sides of (10^5 + 1)^5 = 11^5 * 9091^5 under the default budget.
@example(((10**5 + 1) ** 5 - 1, DEFAULT_BUDGET))
@example(((10**5 + 1) ** 5, DEFAULT_BUDGET))
def test_divides_once_matches_trial_division(case):
    g, budget = case
    assert _divides_once(g, budget) is trial_divides_once(g, budget), case


@st.composite
def planted_at_prime(draw):
    """(f, p) with f = a_n*(x-s)^n + p*g + p^2*k for n = 2..12 and p <= 13.

    g and k have degree below n and p does not divide a_n, so f(x+s) is
    Eisenstein at p exactly when p does not divide g(s).
    """
    n = draw(st.integers(2, 12))
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    height = draw(st.sampled_from((1, 30, 10**6)))
    coeff = st.integers(-height, height)
    lead = draw(coeff.filter(lambda c: c % p))
    power = taylor_shift(IntPoly((0,) * n + (lead,)), -draw(coeff))
    low = tuple(c + p * draw(coeff) + p * p * draw(coeff) for c in power.coeffs[:-1])
    return IntPoly(low + (lead,)), p


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(planted_at_prime())
# p^2 divides n: f(x+s) is x^4 + 2, 3x^8 + 6, x^9 + 3 and x^12 + 4x + 2.
@example((taylor_shift(IntPoly((2, 0, 0, 0, 1)), -1), 2))
@example((taylor_shift(IntPoly((6,) + (0,) * 7 + (3,)), -5), 2))
@example((taylor_shift(IntPoly((3,) + (0,) * 8 + (1,)), 2), 3))
@example((taylor_shift(IntPoly((2, 4) + (0,) * 10 + (1,)), -3), 2))
# f(x+1) = x^4 + 4: 2^2 divides f(1), so no residue works.
@example((taylor_shift(IntPoly((4, 0, 0, 0, 1)), -1), 2))
def test_each_prime_has_at_most_one_working_residue(case):
    f, p = case
    working = [s for s in range(p) if is_eisenstein_with(taylor_shift(f, s), p)]
    shift = _shift_at(f.coeffs, p)
    assert working == ([] if shift is None else [shift]), (f, p)


def test_the_paper_families_are_never_shifted_eisenstein():
    # n = 2: x^2 + x + (3^(2j+1) + 1)/4 has D = -3^(2j+1) < 0, so it has no
    # real root, and D is powerful.
    for j in range(1, 30):
        f = IntPoly(((3 ** (2 * j + 1) + 1) // 4, 1, 1))
        assert 1 - 4 * f.coeffs[0] == -(3 ** (2 * j + 1))
        assert all(evaluate(f, x) for x in (1, -1, 3, -3)), f
        assert _shifted_verdict(f.coeffs, DEFAULT_BUDGET) == (Verdict.NO_CERTIFIED, False), f
        assert decide_certified(f).verdict is Verdict.NO_CERTIFIED, f
    # n >= 3: x^n - x + p has no rational root, as f(+-1) and f(+-p) are nonzero.
    for n in range(3, 16):
        for p in sieve_primes(1223)[2:]:
            f = IntPoly((p, -1) + (0,) * (n - 2) + (1,))
            assert all(evaluate(f, x) for x in (1, -1, p, -p)), f
            assert _shifted_verdict(f.coeffs, DEFAULT_BUDGET) == (Verdict.NO_CERTIFIED, False), f
            assert decide_certified(f).verdict is Verdict.NO_CERTIFIED, f


def test_every_certificate_shift_is_within_the_discriminant_bound():
    # f(x+s) Eisenstein at p makes p^(n-1) divide D, so p <= |D|^(1/(n-1)),
    # and the residue of s nearest 0, s or s - p, has |s| <= p/2.
    polys = [
        IntPoly(body + (lead,))
        for n, height in ((2, 8), (3, 3), (4, 2), (5, 1))
        for body in product(range(-height, height + 1), repeat=n)
        for lead in range(-height, height + 1)
        if lead
    ]
    # 12x^2 - 11x - 10 has the prime D = 601 and needs |s| = 275 <= 300.
    polys.append(IntPoly((-10, -11, 12)))
    attained = set()
    needed = {}
    for f in polys:
        decision = shifted_eisenstein(f)
        if decision.verdict is not Verdict.YES:
            continue
        n = f.degree
        s, p = decision.certificate.shift, decision.certificate.prime
        bound = iroot(abs(discriminant(f)), n - 1)[0] // 2
        needed[f] = min(s, p - s)
        assert needed[f] <= bound <= max_shift_bound(f), (f, decision)
        if needed[f] == bound:
            attained.add(n)
    # The bound is attained: -x^2 - x - 8 has D = -31 and the certificate
    # (15, 31); x^3 + 2x^2 - x - 1 has D = 7^2 and (4, 7), so s - p = -3.
    assert attained == {2, 3}
    assert needed[IntPoly((-10, -11, 12))] == 275
