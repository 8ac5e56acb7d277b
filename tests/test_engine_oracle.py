"""The local-criterion engine against the former discriminant engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eisenshift.eisenstein as eisenstein_module
from eisenshift import (
    FactorBudget,
    IntPoly,
    Verdict,
    shifted_eisenstein,
    taylor_shift,
    verify_certificate,
)

from discriminant_engine import discriminant_engine

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
        FactorBudget(trial_bound=2, rho_iterations=0, perfect_power=False),
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
