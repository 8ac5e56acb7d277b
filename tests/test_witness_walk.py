"""The plain-witness step against the factor-first oracle.

`eisenstein_primes`, `is_eisenstein` and the first step of every shifted
decision walk the coefficient gcd with the same prime walk the shifted step
uses; the oracle factors the gcd completely first and tests every prime.
"""

import itertools

import pytest

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
