"""The local-criterion engine against the former discriminant engine and
against the factor-first decision it replaced, and its closed-form local gcd
against the Taylor-shift definition."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eisenshift.eisenstein as eisenstein_module
import eisenshift.primes
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
from factor_first import factor_first_engine, taylor_h, taylor_local_gcd

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


def test_quadratic_no_tail_computes_no_discriminant(monkeypatch):
    # The NO tail is shared by every degree, and its discriminant fallback
    # is for n >= 3 only: a quadratic that gets there has D != 0, so even a
    # heuristic NO under a tiny budget computes no discriminant.
    monkeypatch.setattr(eisenstein_module, "discriminant", _refuse)
    rng = random.Random(71)
    heuristic = 0
    for budget in TINY_BUDGETS:
        for _ in range(200):
            height = rng.choice(HEIGHTS)
            lead = rng.choice([-1, 1]) * rng.randint(1, height)
            f = IntPoly((rng.randint(-height, height), rng.randint(-height, height), lead))
            heuristic += shifted_eisenstein(f, budget).verdict is Verdict.NO_HEURISTIC
    assert heuristic > 0
    # The refusal is reached: G = 375 = 3 * 5^3 is left unsplit, and the
    # fallback finds the repeated root of this quartic.
    with pytest.raises(AssertionError, match="discriminant machinery"):
        shifted_eisenstein(IntPoly((10051, -1403, 594, -47, 1)), FactorBudget(2, 0))


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


# The smallest odd primes above the trial bounds 2, 1000 and 10^5 of
# ROUGH_BUDGETS.
_JUST_ABOVE = ((3, 5, 7), (1009, 1013, 1019), (100_003, 100_019, 100_043))
ROUGH_BUDGETS = (FactorBudget(2, 1), FactorBudget(1000, 5), DEFAULT_BUDGET)


def _quadratic_with_abs_discriminant(k):
    """x^2 + x + a_0 with |D| = k for an odd k: D = 1 - 4*a_0 is k or -k,
    whichever is 1 (mod 4).  a_1 = 1, so f has no plain witness."""
    d = k if k % 4 == 1 else -k
    return IntPoly(((1 - d) // 4, 1, 1))


def test_rough_discriminant_rests_match_factor_first_oracle():
    # |D| = s^2 * rest with the rest a prime, a square, a semiprime or a
    # product of three primes just past a trial bound.  No prime of s can
    # qualify, so every decision reaches the rest, which trial division to
    # that bound leaves unsplit: verdicts, certificates, reasons and the
    # cofactors of heuristic NOs must match the factor-first oracle.
    verdicts = set()
    for p, q, r in _JUST_ABOVE:
        for rest in (p, p * p, p * q, p * p * q, p * q * r):
            for s in (1, 3, 15):
                f = _quadratic_with_abs_discriminant(s * s * rest)
                for budget in ROUGH_BUDGETS:
                    decision = shifted_eisenstein(f, budget)
                    assert decision == factor_first_engine(f, budget), (f, budget)
                    verdicts.add(decision.verdict)
    assert verdicts == set(Verdict)


# One quadratic per branch of the degree-2 certificate search, with its
# decision under the default budget.  All but the certified NO are samples
# of `monte_carlo(2, H, 4096, seed=1)` at H = 10^6 or 10^12, which holds no
# certified NO; -1 - 5x + 5x^2 is CI's (|D| = 45 = 3^2 * 5, and 5 | a_2).
# The last field says how far the search goes past the gcd with the primes
# up to 311: a trial-division walk from the second block, or that walk and
# a `factorize` split.
QUADRATIC_BRANCHES = {
    "certificate at 2": ((-914587, -171970, 150675), ShiftCertificate(1, 2), None),
    "first-block prime": ((278923, 403386, -931240), ShiftCertificate(28, 37), None),
    "prime reached by the block walk": (
        (235544, 622530, -645914),
        ShiftCertificate(21793, 34513),
        "walk",
    ),
    "prime rest above B": (
        (71862, 211404, -949170),
        ShiftCertificate(88284183, 183755017),
        None,
    ),
    "prime rest above B, H = 10^12": (
        (-415063125863, -636475333344, -20936533518),
        ShiftCertificate(45964511871056332262, 205744954315827616399),
        None,
    ),
    "rho-split prime above B": (
        (301690, 137797, 555135),
        ShiftCertificate(115900, 118411),
        "split",
    ),
    "certified NO": ((-1, -5, 5), None, None),
}


@pytest.mark.parametrize(
    "coeffs, certificate, stage", QUADRATIC_BRANCHES.values(), ids=list(QUADRATIC_BRANCHES)
)
def test_each_quadratic_branch_gives_its_decision(monkeypatch, coeffs, certificate, stage):
    f = IntPoly(coeffs)
    calls = []
    for name in ("_trial_division", "factorize"):

        def recorded(*args, name=name, original=getattr(eisenstein_module, name), **kwargs):
            calls.append((name, args[2:3]))
            return original(*args, **kwargs)

        monkeypatch.setattr(eisenstein_module, name, recorded)
    if certificate is None:
        expected = ShiftedDecision(Verdict.NO_CERTIFIED, reason="no-root-shift-works")
    else:
        expected = ShiftedDecision(Verdict.YES, certificate)
    assert shifted_eisenstein(f) == expected
    walked = ("_trial_division", (64,)) in calls
    split = any(name == "factorize" for name, _ in calls)
    assert (walked, split) == (stage is not None, stage == "split"), calls
    for budget in (DEFAULT_BUDGET,) + tuple(FactorBudget(b) for b in (2, 100, 311, 400)):
        assert shifted_eisenstein(f, budget) == factor_first_engine(f, budget), (f, budget)


def test_a_quadratic_left_heuristic_keeps_its_cofactor():
    # The first-block sample above: with trial division to 2 and one rho
    # step, the odd part of |D| stays whole.
    f = IntPoly(QUADRATIC_BRANCHES["first-block prime"][0])
    budget = FactorBudget(2, 1)
    expected = ShiftedDecision(
        Verdict.NO_HEURISTIC, reason="no-root-shift-works", cofactor=300424320769
    )
    assert shifted_eisenstein(f, budget) == expected == factor_first_engine(f, budget)


def test_a_composite_rest_takes_one_primality_test():
    # |D| = 118411 * 5497181: `is_prime` finds the rest composite, trial
    # division to 10^5 finds none of its primes, and the split gets the same
    # rest back.  Miller-Rabin keeps its last answer, so its rounds run once.
    miller_rabin = eisenshift.primes._miller_rabin
    miller_rabin.cache_clear()
    coeffs, certificate, _ = QUADRATIC_BRANCHES["rho-split prime above B"]
    assert shifted_eisenstein(IntPoly(coeffs)) == ShiftedDecision(Verdict.YES, certificate)
    info = miller_rabin.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# Decisions the first block gives on the written-out coefficients
# (f(s), 2*a_2*s + a_1, a_2) of f(x+s), with no Taylor shift.
CLOSED_FORM_QUADRATICS = {
    # D = -4: s = a_0 mod 2 = 1, f(1) = 2.
    "1 + x^2": ((1, 0, 1), ShiftCertificate(1, 2)),
    # D = -12: f(1) = 4 is 0 mod 4, and 3 | a_2.
    "1 + 3x^2": ((1, 0, 3), None),
    # D = -96: f(1) = 12 is 0 mod 4, so 2 is refused; 3 divides D once.
    "5 + 2x + 5x^2": ((5, 2, 5), ShiftCertificate(1, 3)),
    # D = -7: s = -1/2 = 3 mod 7.
    "2 + x + x^2": ((2, 1, 1), ShiftCertificate(3, 7)),
}


@pytest.mark.parametrize(
    "coeffs, certificate", CLOSED_FORM_QUADRATICS.values(), ids=list(CLOSED_FORM_QUADRATICS)
)
def test_first_block_quadratics_are_decided_in_closed_form(monkeypatch, coeffs, certificate):
    f = IntPoly(coeffs)
    if certificate is None:
        expected = ShiftedDecision(Verdict.NO_CERTIFIED, reason="no-root-shift-works")
    else:
        expected = ShiftedDecision(Verdict.YES, certificate)
    for budget in (DEFAULT_BUDGET, FactorBudget(2, 1), FactorBudget(311, 0)):
        assert shifted_eisenstein(f, budget) == factor_first_engine(f, budget), (f, budget)

    def generic(*args):
        raise AssertionError("a first-block quadratic went through the generic shift test")

    for name in ("_shift_at", "_taylor_shift"):
        monkeypatch.setattr(eisenstein_module, name, generic)
    assert shifted_eisenstein(f) == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((10**6, 10**12)).flatmap(lambda h: st.tuples(*[st.integers(-h, h)] * 3)))
def test_quadratic_decisions_match_factor_first_oracle(coeffs):
    if not coeffs[2]:
        coeffs = coeffs[:2] + (1,)
    f = IntPoly(coeffs)
    for budget in (DEFAULT_BUDGET, FactorBudget(2, 1), FactorBudget(311, 0), FactorBudget(400, 1)):
        assert shifted_eisenstein(f, budget) == factor_first_engine(f, budget), (f, budget)


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
    g, h0 = eisenstein_module._local_gcd(f.coeffs)
    assert g == taylor_local_gcd(f), f
    if g == 1:
        assert h0 is None, f
    else:
        # h_0 = u^n * f(t/u) with u = n*a_n and t = -a_(n-1).
        n, u, t = f.degree, f.degree * f.leading, -f.coeffs[-2]
        assert h0 == sum(c * u ** (n - k) * t**k for k, c in enumerate(f.coeffs)), f


def _closed_forms(coeffs):
    """(u, c, d) of `_local_gcd`'s docstring: u = n*a_n, h_(n-2) = (u/2)*c
    and h_(n-3) = a_n*d."""
    n = len(coeffs) - 1
    a = coeffs[::-1]  # a[i] = a_(n-i)
    u = n * a[0]
    c = 2 * n * a[0] * a[2] - (n - 1) * a[1] ** 2
    d = (
        2 * math.comb(n, 3) * a[1] ** 3
        - (n - 2) * n**2 * a[0] * a[2] * a[1]
        + n**3 * a[0] ** 2 * a[3]
    )
    return u, c, d


def _random_local_coeffs(rng, count):
    for _ in range(count):
        n = rng.randint(3, 12)
        height = rng.choice((1, 3, 30, 10**6))
        body = [rng.randint(-height, height) for _ in range(n)]
        yield tuple(body) + (rng.choice((-1, 1)) * rng.randint(1, height),)


def test_closed_form_d_matches_the_taylor_shift():
    rng = random.Random(80)
    for coeffs in _random_local_coeffs(rng, 600):
        f = IntPoly(coeffs)
        h = taylor_h(f)
        u, c, d = _closed_forms(coeffs)
        n = f.degree
        assert 2 * h[n - 2] == u * c and h[n - 3] == f.leading * d, f
        g, h0 = eisenstein_module._local_gcd(coeffs)
        if n == 3 and g != 1:
            assert h0 == f.leading * d == h[0], f


def test_local_gcd_strips_before_the_rows(monkeypatch):
    # gcd(c, d) > 1 but made of primes of u alone: G = 1 with no row built.
    cases = []
    for coeffs in _random_local_coeffs(random.Random(81), 1500):
        u, c, d = _closed_forms(coeffs)
        common = math.gcd(c, d)
        if common > 1 and eisenstein_module._strip_primes_of(common, u) == 1:
            cases.append(coeffs)
    assert len(cases) > 300
    monkeypatch.setattr(eisenstein_module, "_binomial_rows", _refuse)
    for coeffs in cases:
        assert eisenstein_module._local_gcd(coeffs) == (1, None), coeffs
        assert taylor_local_gcd(IntPoly(coeffs)) == 1, coeffs


def test_local_gcd_of_a_perfect_power_is_zero():
    # f = a*(x - r)^n: every h_j below h_n is 0.
    for n in (3, 4, 7):
        for a, r in ((1, 0), (-3, 5), (12, -7)):
            f = taylor_shift(IntPoly((0,) * n + (a,)), -r)
            assert eisenstein_module._local_gcd(f.coeffs) == (0, 0), f
            assert taylor_local_gcd(f) == 0, f
            assert shifted_eisenstein(f).reason == "discriminant-zero", f


@pytest.mark.parametrize("n", (4, 5, 8))
def test_local_gcd_from_the_rows_alone(n):
    # a_(n-1) = a_(n-2) = a_(n-3) = 0 gives c = d = 0, so G comes from the
    # rows h_(n-4), ..., h_0 only, and u's primes are stripped from it there.
    for low in ((6,), (2,), (5, 7), (0, 0, 15), (9, 0, 3)):
        for lead in (1, 3, -5):
            body = (low + (0,) * n)[: n - 3]
            f = IntPoly(body + (0, 0, 0, lead))
            g, h0 = eisenstein_module._local_gcd(f.coeffs)
            assert g == taylor_local_gcd(f), f
            assert h0 == (None if g == 1 else taylor_h(f)[0]), f


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

    def padded(coeffs):
        g, h0 = local_gcd(coeffs)
        return g * (3 * 5 * 7 * 11 * 13), h0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eisenstein_module, "_local_gcd", padded)
        engine = shifted_eisenstein(f)
    oracle = factor_first_engine(f)
    assert (engine.verdict, engine.certificate) == (oracle.verdict, oracle.certificate), f
