"""The plain-witness step against the factor-first oracle, and Monte Carlo's
plain test against the walk.

`eisenstein_primes`, `is_eisenstein` and the first step of every shifted
decision walk the coefficient gcd with the same prime walk the shifted step
uses; the oracle factors the gcd completely first and tests every prime.
Monte Carlo's `_is_plain` asks only whether a witness exists, by the local
rule's divides-once test.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenshift import (
    DEFAULT_BUDGET,
    BudgetError,
    FactorBudget,
    IntPoly,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    eisenstein_primes,
    is_eisenstein,
    shifted_eisenstein,
)

from eisenshift.eisenstein import _is_plain, _smallest_witness
from factor_first import factor_first_engine, factor_first_witnesses

# Prime pairs below, straddling and above the default trial bound of 10^5.
GCDS = (
    99991 * 99989,
    99991 * 100003,
    1000003 * 1000033,
    2 * 3 * 99991 * 100003,
    4 * 9 * 1000003 * 1000033,
    101**2 * 1000003,
)
BUDGETS = (
    DEFAULT_BUDGET,
    FactorBudget(trial_bound=2, rho_iterations=0),
    FactorBudget(trial_bound=150, rho_iterations=5),
)


def _outcome(walk, f, budget):
    try:
        return walk(f, budget)
    except BudgetError:
        return BudgetError


def _polynomials(g):
    """Polynomials with coefficient gcd g whose a_0 and a_n rule out some of g's primes."""
    primes = [p for p in (2, 3, 101, 99989, 99991, 100003, 1000003, 1000033) if g % p == 0]
    for square, lead in itertools.product([1] + primes, [1, -7] + primes):
        for n in (2, 4):
            middle = tuple(g * k for k in range(1, n))
            yield IntPoly((g * square * 5,) + middle + (lead,))


@pytest.mark.parametrize("g", GCDS)
def test_eisenstein_primes_match_factor_first_oracle(g):
    for f in _polynomials(g):
        expected = factor_first_witnesses(f)
        assert eisenstein_primes(f) == expected, f
        assert is_eisenstein(f) == bool(expected), f
        if expected:
            yes = ShiftedDecision(Verdict.YES, ShiftCertificate(0, expected[0]))
            assert shifted_eisenstein(f, BUDGETS[1]) == yes == factor_first_engine(f, BUDGETS[1])
        for budget in BUDGETS:
            assert _outcome(eisenstein_primes, f, budget) == _outcome(
                factor_first_witnesses, f, budget
            ), (f, budget)


def test_unsplit_gcd_still_refuses():
    # Two 18-digit primes: the default rho budget cannot split their product,
    # so no witness can be ruled out and the plain test refuses.
    g = 100000000000000003 * 100000000000000013
    f = IntPoly((g, g, 1))
    with pytest.raises(BudgetError):
        is_eisenstein(f)
    with pytest.raises(BudgetError):
        factor_first_witnesses(f)
    # A witness found by trial division is returned before the walk reaches
    # the unsplit part; one above the trial bound comes from the same rho
    # split as that part, so it is not tested.
    assert is_eisenstein(IntPoly((3 * g, 3 * g, 1)))
    with pytest.raises(BudgetError):
        is_eisenstein(IntPoly((100003 * g, 100003 * g, 1)))


# Primes below, at and past the default trial bound 10^5, and two past it
# that trial division leaves whole: 10^12 + 39, and 2^89 - 1 > (10^5 + 1)^5,
# past the reach of the plain test's divides-once test.
SHARED_PRIMES = (2, 3, 5, 99991, 100003)
LARGE_PRIMES = (10**12 + 39, 2**89 - 1)


@st.composite
def shared_powers(draw):
    """Coefficients of degree 2 to 4 whose a_0, gcd and a_n share prime powers.

    Each coefficient is a nonzero cofactor, small or up to 10^30, times a
    power of each chosen prime, with at most one prime from LARGE_PRIMES so
    that no rho split is out of the default budget's reach.  a_0 is 0 and
    a_n is +-1 now and then.
    """
    n = draw(st.integers(2, 4))
    primes = draw(st.lists(st.sampled_from(SHARED_PRIMES), max_size=3, unique=True))
    primes += draw(st.lists(st.sampled_from(LARGE_PRIMES), max_size=1))
    size = st.one_of(st.integers(1, 50), st.integers(10**29, 10**30))
    coeffs = []
    for _ in range(n + 1):
        c = draw(size) * draw(st.sampled_from((1, -1)))
        for p in primes:
            c *= p ** draw(st.integers(0, 3))
        coeffs.append(c)
    if draw(st.integers(0, 7)) == 0:
        coeffs[0] = 0
    if draw(st.integers(0, 3)) == 0:
        coeffs[-1] = draw(st.sampled_from((1, -1)))
    return tuple(coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shared_powers())
def test_plain_test_matches_the_witness_walk(coeffs):
    assert _is_plain(coeffs) is (_smallest_witness(coeffs) is not None), coeffs


def test_plain_test_refuses_only_past_its_reach():
    # g = 100000000000000003 * 100000000000000013 >= (10^5 + 1)^5, which the
    # default rho budget cannot split.  With a_n = 1 the divides-once test
    # would need all of g, so the walk decides and refuses.
    g = 100000000000000003 * 100000000000000013
    with pytest.raises(BudgetError):
        _is_plain((g, g, 1))
    # With a_n = g the primes of a_n leave g_1 = 1: no witness.  With
    # a_0 = 3g, g_1 = 3 and a_0/g_1 = g leave g_2 = 3, a witness; with
    # a_0 = 9g, a_0/g_1 = 3g takes it away.  The plain test answers all
    # three, rightly, where the walk, which strips nothing, refuses.
    assert not _is_plain((g, g, g))
    assert _is_plain((3 * g, 3 * g, g)) and not _is_plain((9 * g, 3 * g, g))
    with pytest.raises(BudgetError):
        _smallest_witness((g, g, g))


# The plain-witness screen: one gcd with the product of the primes up to 311
# gives the witnesses there, and only the rest of g is walked, past 311.
# Each case: coefficients, then the smallest witness.
SCREEN_CASES = {
    # g = 2 * 313, but 4 | a_0: 2 fails, and 313 comes from the walk.
    "walk past the first block": ((1252, 626, 1), 313),
    "a prime past the first block alone": ((626, 313, 5), 313),
    # 3 | g, but 3 | a_n: 3 fails, and 5 from the screen wins.
    "a first-block prime dividing a_n": ((15, 30, 45, 3), 5),
    "a first-block prime dividing a_n, 313 past it": ((3 * 313, 3 * 313, 3), 313),
    "a_0 = 0": ((0, 6, 1), None),
    "g = 1": ((3, 2, 1), None),
    "degree 1": ((2 * 311 * 313, 1), 2),
}


@pytest.mark.parametrize("coeffs, witness", SCREEN_CASES.values(), ids=list(SCREEN_CASES))
def test_the_witness_screen_gives_its_literal_witness(coeffs, witness):
    f = IntPoly(coeffs)
    assert _smallest_witness(coeffs) == witness
    assert is_eisenstein(f) == (witness is not None)
    primes = eisenstein_primes(f)
    assert primes == factor_first_witnesses(f)
    assert primes[:1] == ([witness] if witness else [])


# Primes of the first block, 311 at its end, and 313 and 10007 past it.
SCREEN_PRIMES = (2, 3, 5, 7, 307, 311, 313, 10007)


@st.composite
def screened_gcds(draw):
    """Coefficients of degree 1 to 6 whose g carries primes on both sides of 311.

    Every coefficient below the top is a multiple of g; a_0 and a_n take
    powers of g's primes now and then, so that the screen rules some out.
    """
    n = draw(st.integers(1, 6))
    primes = draw(st.lists(st.sampled_from(SCREEN_PRIMES), max_size=4, unique=True))
    g = 1
    for p in primes:
        g *= p ** draw(st.integers(1, 2))
    sign = st.sampled_from((1, -1))
    coeffs = [g * draw(st.integers(1, 40)) * draw(sign) for _ in range(n)]
    lead = draw(st.integers(1, 40)) * draw(sign)
    for p in primes:
        coeffs[0] *= p ** draw(st.integers(0, 2))
        lead *= p ** draw(st.integers(0, 1))
    if draw(st.integers(0, 9)) == 0:
        coeffs[0] = 0
    return tuple(coeffs) + (lead,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(screened_gcds())
def test_the_witness_screen_matches_factor_first_oracle(coeffs):
    f = IntPoly(coeffs)
    expected = factor_first_witnesses(f)
    assert _smallest_witness(coeffs) == (expected[0] if expected else None), coeffs
    assert is_eisenstein(f) == bool(expected), coeffs
    for budget in BUDGETS + (FactorBudget(311, 0), FactorBudget(313, 0)):
        assert _outcome(eisenstein_primes, f, budget) == _outcome(
            factor_first_witnesses, f, budget
        ), (coeffs, budget)
