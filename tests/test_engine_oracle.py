"""The local-criterion engine against the former discriminant engine and
against the factor-first decision it replaced, and its closed-form local gcd
against the Taylor-shift definition."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eisenshift.eisenstein as eisenstein_module
from eisenshift import (
    DEFAULT_BUDGET,
    FactorBudget,
    IntPoly,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    shifted_eisenstein,
    taylor_shift,
    verify_certificate,
)

from discriminant_engine import discriminant_engine
from factor_first import factor_first_engine, taylor_local_gcd

DEGREES = (2, 3, 4, 5, 6, 8)
HEIGHTS = (10, 10**6)
PLANT_PRIMES = (2, 3, 5, 7, 11, 101, 1009)


@st.composite
def polynomials(draw, degrees=DEGREES):
    """Random polynomials of the box |a_i| <= H, half of them planted.

    A planted polynomial is an Eisenstein polynomial at a prime from
    PLANT_PRIMES, shifted by a random s, so it is shifted-Eisenstein.
    """
    n = draw(st.sampled_from(degrees))
    height = draw(st.sampled_from(HEIGHTS))
    coeff = st.integers(-height, height)
    if not draw(st.booleans()):
        body = tuple(draw(coeff) for _ in range(n))
        return IntPoly(body + (draw(coeff.filter(bool)),))
    p = draw(st.sampled_from(PLANT_PRIMES))
    k = max(1, height // p)
    a0 = p * draw(st.integers(-k, k).filter(lambda c: c % p))
    middle = tuple(p * draw(st.integers(-k, k)) for _ in range(n - 1))
    lead = draw(coeff.filter(lambda c: c % p))
    return taylor_shift(IntPoly((a0,) + middle + (lead,)), draw(coeff))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(polynomials())
def test_engine_matches_discriminant_oracle(f):
    engine = shifted_eisenstein(f)
    oracle = discriminant_engine(f)
    if f.degree == 2:
        # The quadratic path factors the same |D|: the decisions are identical,
        # reasons and cofactors included.
        assert engine == oracle, (f, engine, oracle)
    else:
        assert engine.verdict is oracle.verdict, (f, engine, oracle)
        assert engine.certificate == oracle.certificate, (f, engine, oracle)
    if engine.verdict is Verdict.YES:
        assert verify_certificate(f, engine.certificate)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polynomials(degrees=(2,)))
def test_quadratic_budget_behaviour_matches_oracle(f):
    # Heuristic verdicts, cofactors and escalations depend on the budget
    # only through the factorization of |D|, which both engines share.
    for budget in (
        FactorBudget(trial_bound=2, rho_iterations=1),
        FactorBudget(trial_bound=2, rho_iterations=0),
    ):
        assert shifted_eisenstein(f, budget) == discriminant_engine(f, budget), f


def _refuse(*args, **kwargs):
    raise AssertionError("the engine must not call the discriminant machinery")


def test_engine_skips_discriminant_machinery(monkeypatch):
    # Under the default budget every decision below is certified, so not
    # even the fallback may compute a discriminant.
    for name in ("principal_subresultant", "derivative", "roots_mod_p", "discriminant"):
        monkeypatch.setattr(eisenstein_module, name, _refuse)
    rng = random.Random(70)
    for _ in range(400):
        n = rng.choice(DEGREES)
        height = rng.choice(HEIGHTS)
        coeffs = [rng.randint(-height, height) for _ in range(n)]
        lead = rng.choice([-1, 1]) * rng.randint(1, height)
        decision = shifted_eisenstein(IntPoly(tuple(coeffs + [lead])))
        assert decision.verdict is not Verdict.NO_HEURISTIC


TINY_BUDGETS = (
    FactorBudget(trial_bound=2, rho_iterations=1),
    FactorBudget(trial_bound=2, rho_iterations=0),
    FactorBudget(trial_bound=150, rho_iterations=5),
    FactorBudget(trial_bound=150, rho_iterations=0),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polynomials(degrees=DEGREES + (10,)))
# D = 3^2 * 7^2: trial division alone splits it, so the NO stays certified
# under a budget with no rho iterations.
@example(IntPoly((-10, -9, 9)))
def test_whole_decisions_match_factor_first_oracle(f):
    # Testing primes as trial division finds them must change nothing:
    # verdict, certificate, reason and cofactor, under any budget.
    for budget in (DEFAULT_BUDGET,) + TINY_BUDGETS:
        assert shifted_eisenstein(f, budget) == factor_first_engine(f, budget), (f, budget)


@pytest.mark.parametrize(
    "g, tiny_certificate",
    [
        # G = 3: trial division to 2 leaves the rest 3, which is prime.
        ((15, 15) + (0,) * 8 + (1,), ShiftCertificate(1, 3)),
        # G = 21: the rest 21 needs rho; one rho step cannot split it, and
        # the prime 5 of n is next.
        ((105, 105) + (0,) * 8 + (1,), ShiftCertificate(1, 5)),
    ],
)
def test_rest_primes_are_tried_before_larger_primes_of_n(g, tiny_certificate):
    # f(x+1) = g is Eisenstein at 3 and at 5 (and at 7 for the second g).
    # n = 10 and a_10 = 1, so 2 and 5 are candidates from n, while 3 comes
    # from G and must be tried before 5.
    f = taylor_shift(IntPoly(g), -1)
    smallest = ShiftedDecision(Verdict.YES, ShiftCertificate(1, 3))
    assert discriminant_engine(f) == smallest
    for budget in (DEFAULT_BUDGET, FactorBudget(trial_bound=2, rho_iterations=100)):
        assert shifted_eisenstein(f, budget) == smallest
        assert factor_first_engine(f, budget) == smallest
    tiny = FactorBudget(trial_bound=2, rho_iterations=1)
    assert shifted_eisenstein(f, tiny) == ShiftedDecision(Verdict.YES, tiny_certificate)
    assert factor_first_engine(f, tiny) == shifted_eisenstein(f, tiny)


LOCAL_DEGREES = (3, 4, 5, 6, 8)


@st.composite
def local_polynomials(draw):
    """Degree n >= 3 polynomials, two thirds of them planted at a prime q.

    A planted f is F(x-s) with F = a*x^n + q*x*g(x) + q^e*c, e in {1, 2} and
    deg g <= n - 2.  So q divides G whenever it does not divide n*a, and
    f(x+s) = F is Eisenstein at q exactly when e = 1 and q does not divide
    c: every plant with e = 2 has q^2 dividing f(s), so q fails there.
    """
    n = draw(st.sampled_from(LOCAL_DEGREES))
    height = draw(st.sampled_from((1, 3, 30, 10**6)))
    coeff = st.integers(-height, height)
    e = draw(st.integers(0, 2))
    if e == 0:
        body = tuple(draw(coeff) for _ in range(n))
        return IntPoly(body + (draw(coeff.filter(bool)),))
    q = draw(st.sampled_from(PLANT_PRIMES))
    middle = tuple(q * draw(coeff) for _ in range(n - 1))
    big = (q**e * draw(coeff),) + middle + (draw(coeff.filter(bool)),)
    return taylor_shift(IntPoly(big), -draw(coeff))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(local_polynomials())
def test_closed_form_local_gcd_matches_taylor_shift_oracle(f):
    assert eisenstein_module._local_gcd(f) == taylor_local_gcd(f), f


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(local_polynomials())
def test_local_decisions_match_factor_first_oracle(f):
    # The oracle tests every shift of its own candidate rule in full; the
    # engine tests one shift per prime.
    for budget in (DEFAULT_BUDGET, FactorBudget(2, 0)):
        assert shifted_eisenstein(f, budget) == factor_first_engine(f, budget), (f, budget)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(local_polynomials())
def test_every_yes_is_checked_in_full(f):
    # With a G that carries five primes which need not qualify, the full
    # check in `_shift_at` alone must keep verdict and certificate unchanged.
    local_gcd = eisenstein_module._local_gcd

    def padded(f):
        return local_gcd(f) * (3 * 5 * 7 * 11 * 13)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eisenstein_module, "_local_gcd", padded)
        engine = shifted_eisenstein(f)
    oracle = factor_first_engine(f)
    assert (engine.verdict, engine.certificate) == (oracle.verdict, oracle.certificate), f
