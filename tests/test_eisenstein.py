"""Eisenstein tests, the shift decision engine, and certificate checking."""

import random
from itertools import product

import pytest

import eisenshift.eisenstein
from eisenshift import (
    BudgetError,
    DomainError,
    FactorBudget,
    IntPoly,
    ShiftCertificate,
    Verdict,
    decide_certified,
    eisenstein_primes,
    first_primes,
    is_eisenstein,
    is_eisenstein_with,
    parse_poly,
    shifted_eisenstein,
    taylor_shift,
    verify_certificate,
)

from factor_first import evaluate
from shift_scan import naive_shift_scan

TINY = FactorBudget(trial_bound=2, rho_iterations=0)


def _random_poly(rng, deg, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
    lead = rng.randint(-bound, bound)
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return IntPoly(tuple(coeffs + [lead]))


def _random_eisenstein(rng, deg, p):
    """A polynomial guaranteed Eisenstein with respect to p."""
    coeffs = [p * rng.randint(-9, 9) for _ in range(1, deg)]
    u = rng.randint(-9, 9)
    while u % p == 0:
        u = rng.randint(-9, 9)
    lead = rng.randint(-9, 9)
    while lead % p == 0:
        lead = rng.randint(-9, 9)
    return IntPoly(tuple([p * u] + coeffs + [lead]))


def test_is_eisenstein_with_examples():
    assert is_eisenstein_with(IntPoly((2, 2, 1)), 2)
    assert is_eisenstein_with(IntPoly((3, 6, 1)), 3)
    assert not is_eisenstein_with(IntPoly((4, 2, 1)), 2)  # p^2 | a0
    assert not is_eisenstein_with(IntPoly((2, 1, 1)), 2)  # p does not divide a1
    assert not is_eisenstein_with(IntPoly((2, 2, 2)), 2)  # p | leading
    assert not is_eisenstein_with(IntPoly((5,)), 5)  # constant
    assert not is_eisenstein_with(IntPoly((0, 2, 1)), 2)  # a0 = 0


def test_is_eisenstein_with_rejects_non_primes():
    f = IntPoly((2, 2, 1))
    for bad in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(DomainError):
            is_eisenstein_with(f, bad)


def test_eisenstein_primes():
    assert eisenstein_primes(IntPoly((6, 6, 1))) == [2, 3]
    assert eisenstein_primes(IntPoly((3, 6, 1))) == [3]
    assert eisenstein_primes(IntPoly((2, 1, 1))) == []
    assert eisenstein_primes(IntPoly((0, 2, 1))) == []
    assert eisenstein_primes(IntPoly((4, 2, 1))) == []
    assert eisenstein_primes(IntPoly((12, 6, 5))) == [3]  # 4 | 12 kills p=2
    with pytest.raises(DomainError):
        eisenstein_primes(IntPoly((7,)))
    # A constant has no Eisenstein test, the zero polynomial included.
    for constant in (IntPoly((7,)), IntPoly((0,))):
        with pytest.raises(DomainError):
            is_eisenstein(constant)


def test_is_eisenstein_matches_eisenstein_primes():
    rng = random.Random(60)
    for _ in range(500):
        f = _random_poly(rng, rng.randrange(2, 5), 30)
        assert is_eisenstein(f) == bool(eisenstein_primes(f))


def test_random_eisenstein_construction_is_detected():
    rng = random.Random(61)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        f = _random_eisenstein(rng, rng.randrange(2, 6), p)
        assert is_eisenstein_with(f, p)
        assert p in eisenstein_primes(f)
        assert is_eisenstein(f)


def test_shifted_engine_worked_examples():
    d = shifted_eisenstein(parse_poly("5,4,1"))  # x^2+4x+5 -> (x+1): x^2+6x+10? no:
    # f(x+1) = x^2 + 6x + 10 is Eisenstein with respect to 2.
    assert d.verdict is Verdict.YES
    assert d.certificate == ShiftCertificate(1, 2)
    assert verify_certificate(parse_poly("5,4,1"), d.certificate)

    d = shifted_eisenstein(parse_poly("2,1,1"))  # x^2+x+2 works at s=3, p=7
    assert d.verdict is Verdict.YES
    assert d.certificate == ShiftCertificate(3, 7)
    assert verify_certificate(parse_poly("2,1,1"), d.certificate)

    d = shifted_eisenstein(parse_poly("2,1,0,1"))  # x^3+x+2: certified NO
    assert d.verdict is Verdict.NO_CERTIFIED
    assert d.certificate is None


def test_already_eisenstein_gets_zero_shift():
    f = IntPoly((2, 2, 1))
    d = shifted_eisenstein(f)
    assert d.verdict is Verdict.YES
    assert d.certificate.shift == 0
    assert verify_certificate(f, d.certificate)


def test_negative_family_certified():
    # x^n + x + 2 admits no Eisenstein shift for 3 <= n <= 8
    for n in range(3, 9):
        f = IntPoly((2, 1) + (0,) * (n - 2) + (1,))
        d = shifted_eisenstein(f)
        assert d.verdict is Verdict.NO_CERTIFIED, (n, d)
    # but the quadratic member does: x^2 + x + 2 at (3, 7)
    d = shifted_eisenstein(IntPoly((2, 1, 1)))
    assert d.verdict is Verdict.YES
    assert verify_certificate(IntPoly((2, 1, 1)), d.certificate)


def test_repeated_root_is_certified_no():
    for f in (IntPoly((1, 2, 1)), IntPoly((2, 4, 2)), IntPoly((0, 0, 1))):
        d = shifted_eisenstein(f)
        assert d.verdict is Verdict.NO_CERTIFIED
        assert d.reason == "discriminant-zero"


def test_certificates_are_canonical():
    rng = random.Random(62)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        base = _random_eisenstein(rng, rng.randrange(2, 5), p)
        f = taylor_shift(base, rng.randint(-30, 30))
        d = shifted_eisenstein(f)
        assert d.verdict is Verdict.YES, (base, f)
        assert 0 <= d.certificate.shift < d.certificate.prime
        assert verify_certificate(f, d.certificate)


def test_degree_below_two_rejected():
    with pytest.raises(DomainError):
        shifted_eisenstein(IntPoly((1, 2)))
    with pytest.raises(DomainError):
        naive_shift_scan(IntPoly((5,)))


def test_heuristic_no_under_tiny_budget_resolves_with_default():
    # x^2 + 5x + 1 has discriminant 21 = 3 * 7; with no way to factor 21 the
    # engine must admit a heuristic NO, and the default budget finds the
    # certificate (shift 2, prime 3).
    f = IntPoly((1, 5, 1))
    weak = shifted_eisenstein(f, TINY)
    assert weak.verdict is Verdict.NO_HEURISTIC
    assert weak.cofactor == 21
    strong = shifted_eisenstein(f)
    assert strong.verdict is Verdict.YES
    assert strong.certificate == ShiftCertificate(2, 3)
    assert verify_certificate(f, strong.certificate)


def test_verify_certificate_rejects_malformed():
    f = parse_poly("5,4,1")
    good = shifted_eisenstein(f).certificate
    assert verify_certificate(f, good)
    assert not verify_certificate(f, ShiftCertificate(good.shift + 1, good.prime))
    assert not verify_certificate(f, ShiftCertificate(good.shift, 9))  # composite
    assert not verify_certificate(f, ShiftCertificate(-1, 2))
    assert not verify_certificate(f, ShiftCertificate(5, 2))  # not canonical
    assert not verify_certificate(f, ShiftCertificate("1", 2))
    assert not verify_certificate(f, ShiftCertificate(1, 0))
    # right pair for a different polynomial
    assert not verify_certificate(parse_poly("3,1,1"), good)


def test_verify_certificate_rejects_bools():
    # f(x+1) = x^2 + 2 is Eisenstein at 2, but True is not the shift 1.
    f = IntPoly((3, -2, 1))
    assert verify_certificate(f, ShiftCertificate(1, 2))
    assert not verify_certificate(f, ShiftCertificate(True, 2))
    assert not verify_certificate(f, ShiftCertificate(False, True))


def test_verify_certificate_catches_only_malformed_objects(monkeypatch):
    f = parse_poly("5,4,1")
    good = shifted_eisenstein(f).certificate
    assert not verify_certificate(f, object())
    assert not verify_certificate(object(), good)

    def broken(n):
        raise RuntimeError("primality test failed")

    monkeypatch.setattr("eisenshift.eisenstein.is_prime", broken)
    with pytest.raises(RuntimeError):
        verify_certificate(f, good)


def test_verify_certificate_tests_the_prime_once(monkeypatch):
    # |D| = 100003 * 100019; the certificate prime is 100003.
    f = IntPoly((-2500550014, 1, 1))
    good = shifted_eisenstein(f).certificate
    assert good.prime == 100003
    tested = []
    is_prime = eisenshift.eisenstein.is_prime

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr("eisenshift.eisenstein.is_prime", counting)
    assert verify_certificate(f, good)
    assert tested == [100003]
    assert not verify_certificate(f, ShiftCertificate(good.shift + 1, good.prime))
    assert tested == [100003, 100003]


def test_naive_scan_certificates_verify():
    rng = random.Random(63)
    for _ in range(200):
        f = _random_poly(rng, 2, 6)
        d = naive_shift_scan(f)
        if d.verdict is Verdict.YES:
            assert 0 <= d.certificate.shift < d.certificate.prime
            assert verify_certificate(f, d.certificate)


def test_naive_scan_budget_error_on_huge_bound():
    f = IntPoly((10_000, 10_000, 1))
    with pytest.raises(BudgetError):
        naive_shift_scan(f)


def test_periodicity_of_certificates():
    rng = random.Random(64)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        base = _random_eisenstein(rng, rng.randrange(2, 5), p)
        f = taylor_shift(base, rng.randint(-20, 20))
        d = shifted_eisenstein(f)
        assert d.verdict is Verdict.YES
        s, q = d.certificate.shift, d.certificate.prime
        for k in range(-10, 11):
            assert is_eisenstein_with(taylor_shift(f, s + k * q), q)


def test_shift_root_necessity():
    rng = random.Random(65)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        base = _random_eisenstein(rng, rng.randrange(2, 5), p)
        f = taylor_shift(base, rng.randint(-25, 25))
        d = shifted_eisenstein(f)
        assert d.verdict is Verdict.YES
        s, q = d.certificate.shift, d.certificate.prime
        assert evaluate(f, s) % q == 0


def test_engine_agrees_with_scan_on_random_cubics():
    rng = random.Random(66)
    for _ in range(300):
        f = _random_poly(rng, 3, 4)
        a = shifted_eisenstein(f)
        b = naive_shift_scan(f)
        assert a.verdict is b.verdict, (f, a, b)
        if a.verdict is Verdict.YES:
            assert verify_certificate(f, a.certificate)
            assert verify_certificate(f, b.certificate)


def test_budget_error_propagates_from_gcd_factoring():
    # eisenstein_primes must refuse rather than silently miss witnesses when
    # the coefficient gcd cannot be fully factored.
    p = 1_000_000_007
    q = 1_000_000_009
    f = IntPoly((p * q, p * q, 1))
    with pytest.raises(BudgetError):
        eisenstein_primes(f, TINY)

def test_coincident_roots_give_discriminant_zero():
    # 3(x-2)^4: every coefficient of the transformed polynomial below the
    # leading one vanishes, so G = 0.
    f = taylor_shift(IntPoly((0, 0, 0, 0, 3)), -2)
    assert f == IntPoly((48, -96, 72, -24, 3))
    d = shifted_eisenstein(f)
    assert d.verdict is Verdict.NO_CERTIFIED
    assert d.reason == "discriminant-zero"


def test_prime_dividing_degree_finds_its_shift():
    # f(x+1) = x^4 + 2x + 2 is Eisenstein at 2, and 2 divides n = 4 but not
    # a_n, so the shift comes from trying every residue mod 2.
    f = taylor_shift(IntPoly((2, 2, 0, 0, 1)), -1)
    assert not is_eisenstein(f)
    d = shifted_eisenstein(f)
    assert d.certificate == ShiftCertificate(1, 2)
    # x^6 + 3x + 3 at 3, with n = 6 and shift 2.
    f = taylor_shift(IntPoly((3, 3, 0, 0, 0, 0, 1)), -2)
    d = shifted_eisenstein(f)
    assert d.certificate == ShiftCertificate(2, 3)
    assert verify_certificate(f, d.certificate)


def test_uncertified_repeated_root_falls_back_to_discriminant():
    # (x-36)^2 (x-1): G = 35^2 stays unsplit under TINY, and the zero
    # discriminant still certifies the NO.
    f = IntPoly((-1296, 1368, -73, 1))
    d = shifted_eisenstein(f, TINY)
    assert d.verdict is Verdict.NO_CERTIFIED
    assert d.reason == "discriminant-zero"
    # x^3 + 70x + 1225 has G = 35 and a nonzero discriminant: heuristic NO
    # under TINY, certified once 35 is factored.
    f = IntPoly((1225, 70, 0, 1))
    weak = shifted_eisenstein(f, TINY)
    assert weak.verdict is Verdict.NO_HEURISTIC
    assert weak.cofactor == 35
    assert shifted_eisenstein(f).verdict is Verdict.NO_CERTIFIED


def test_prime_divisors_of_small_degrees():
    for m in range(1, 2000):
        brute = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        assert eisenshift.eisenstein._prime_divisors(m) == tuple(brute), m


def test_decide_certified_escalates_and_gives_up(monkeypatch):
    f = IntPoly((1, 5, 1))
    # CERTIFY_RETRIES is read at each call.
    monkeypatch.setattr(eisenshift.eisenstein, "CERTIFY_RETRIES", 0)
    with pytest.raises(BudgetError):
        decide_certified(f, TINY)
    # One escalation raises the trial bound to 8, which splits 21.
    monkeypatch.setattr(eisenshift.eisenstein, "CERTIFY_RETRIES", 1)
    assert decide_certified(f, TINY).certificate == ShiftCertificate(2, 3)
    seen = []

    def counting(g, budget):
        seen.append(budget.trial_bound)
        return shifted_eisenstein(g, budget)

    assert decide_certified(f, TINY, decide=counting).verdict is Verdict.YES
    assert seen == [2, 8]


def test_escalation_repeats_only_the_certificate_search(monkeypatch):
    # The plain-witness step runs under DEFAULT_BUDGET, so by default an
    # escalation skips it; a caller's own `decide` is repeated whole.  Under
    # FactorBudget(2, 1) the (2, 6) box escalates 284 times.
    walks = []
    walk = eisenshift.eisenstein._smallest_witness

    def counting(coeffs):
        walks.append(coeffs)
        return walk(coeffs)

    monkeypatch.setattr(eisenshift.eisenstein, "_smallest_witness", counting)
    lows = range(-6, 7)
    box = [IntPoly(body + (lead,)) for body in product(lows, repeat=2) for lead in lows if lead]
    budget = FactorBudget(2, 1)
    default = [decide_certified(f, budget) for f in box]
    assert len(walks) == len(box) == 2028
    walks.clear()
    whole = [decide_certified(f, budget, decide=shifted_eisenstein) for f in box]
    assert len(walks) == 2312
    assert default == whole


def test_decide_certified_does_not_escalate_a_budget_that_cannot_grow():
    # FactorBudget(0, 0).scaled(4) is itself: the first heuristic NO is final.
    f = IntPoly((1, 5, 1))
    calls = []

    def counting(g, budget):
        calls.append(budget)
        return shifted_eisenstein(g, budget)

    with pytest.raises(BudgetError, match="cannot grow"):
        decide_certified(f, FactorBudget(0, 0), decide=counting)
    assert calls == [FactorBudget(0, 0)]


def test_decisions_with_one_certificate_are_one_shared_value():
    # Shift 0: x^2 + 2x + 2 and 3x^2 + 4x + 6 are both Eisenstein at 2.
    plain = shifted_eisenstein(IntPoly((2, 2, 1)))
    assert plain is shifted_eisenstein(IntPoly((6, 4, 3)))
    assert plain.certificate == ShiftCertificate(0, 2)
    # The certificate search: x^2 + 5x + 1 and x^2 - x + 1 both become
    # Eisenstein at 3 under x -> x + 2.
    searched = shifted_eisenstein(IntPoly((1, 5, 1)))
    assert searched is shifted_eisenstein(IntPoly((1, -1, 1)))
    assert searched.certificate == ShiftCertificate(2, 3)
    for decision, certificate in ((plain, (0, 2)), (searched, (2, 3))):
        with pytest.raises(AttributeError):
            decision.verdict = Verdict.NO_CERTIFIED
        with pytest.raises(AttributeError):
            decision.certificate.shift = 1
        assert decision.verdict is Verdict.YES and decision.certificate == certificate


def test_shared_yes_decisions_are_bounded():
    yes = eisenshift.eisenstein._yes
    assert yes.cache_info().maxsize == 256
    # x^2 + p*x + p is Eisenstein at p: 300 distinct certificates.
    for p in first_primes(300):
        decision = shifted_eisenstein(IntPoly((p, p, 1)))
        assert decision.certificate == ShiftCertificate(0, p)
    assert yes.cache_info().currsize <= 256
