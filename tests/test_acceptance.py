"""Acceptance gate: one test per acceptance criterion, stated tolerances.

Each test prints a single "criterion N (...): PASS/FAIL" line (visible with
pytest -s or in captured output).  Criterion 3 is marked as a strict expected
failure: a correct decision procedure concentrates the quartic ratio near
2.5, mathematically outside the required [3.0, 4.2] window; the measured
evidence and the analysis live in the test body and in its xfail reason.
"""

import json
import math
import time
from itertools import product

import pytest
from mpmath import mpf, workdps

from eisenshift import (
    IntPoly,
    Verdict,
    density_report,
    discriminant,
    exact_census,
    first_primes,
    is_eisenstein_with,
    mahler_bound,
    monte_carlo,
    reports_to_csv,
    shifted_eisenstein,
    sinh_bound_check,
    taylor_shift,
    verify_certificate,
)

from d_local import census_h_subset
from factor_first import evaluate
from shift_scan import naive_shift_scan

import random

SEEDS = list(range(1, 11))


def _rel_err(value, target):
    return abs(float(value) - target) / abs(target)


def test_criterion_1_gamma_table():
    targets = {2: 1.33e-2, 3: 2.36e-4, 4: 9.44e-7, 5: 9.28e-10, 10: 7.70e-34}
    start = time.perf_counter()
    primes = first_primes(10000)
    results = {n: density_report(n, primes).gamma for n in targets}
    elapsed = time.perf_counter() - start
    for n, target in targets.items():
        # agreement to 3 significant figures
        assert _rel_err(results[n], target) < 5e-3, (n, results[n], target)
    assert elapsed < 1.0, "gamma table took %.2f s" % elapsed
    print(
        "criterion 1 (gamma table, 5 degrees, 3 sig figs, %.2f s): PASS" % elapsed
    )


def _ratio_experiment(n):
    ratios = []
    unresolved_ok = True
    for seed in SEEDS:
        r = monte_carlo(n, 10**6, 20000, seed=seed)
        ratios.append(r.ratio)
        if r.unresolved / r.samples >= 1e-3:
            unresolved_ok = False
    return ratios, unresolved_ok


def test_criterion_2_cubic_monte_carlo():
    ratios, unresolved_ok = _ratio_experiment(3)
    inside = sum(1 for r in ratios if 2.5 <= r <= 3.5)
    assert unresolved_ok, "unresolved fraction reached 1e-3"
    assert inside >= 9, "only %d/10 cubic ratios in [2.5, 3.5]: %s" % (inside, ratios)
    print(
        "criterion 2 (cubic ratio in [2.5, 3.5], %d/10 seeds, unresolved < 1e-3): PASS"
        % inside
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the required window [3.0, 4.2] is unreachable for a sound decision "
        "procedure: among uniform quartics the shifted-to-plain ratio "
        "converges to (sum (p-1)^2/p^5) / (sum (p-1)^2/p^6) ~= 2.51, and all "
        "ten seeded runs at H=10^6 with 20000 samples land within a few "
        "percent of it (the oracle-equivalence suite rules out missed "
        "positives); see the 'Testing' section of README.md"
    ),
)
def test_criterion_3_quartic_monte_carlo():
    ratios, unresolved_ok = _ratio_experiment(4)
    inside = sum(1 for r in ratios if 3.0 <= r <= 4.2)
    with workdps(30):
        primes = first_primes(4000)
        asymptotic = sum(mpf((p - 1) ** 2) / mpf(p) ** 5 for p in primes) / sum(
            mpf((p - 1) ** 2) / mpf(p) ** 6 for p in primes
        )
    print(
        "criterion 3 (quartic ratio in [3.0, 4.2]): FAIL — %d/10 inside; "
        "measured %s, asymptotic %.4f" % (inside, [round(r, 3) for r in ratios], asymptotic)
    )
    assert unresolved_ok
    assert inside >= 9, (
        "quartic ratios %s concentrate near %.4f, outside [3.0, 4.2]"
        % ([round(r, 3) for r in ratios], float(asymptotic))
    )


def test_criterion_4_oracle_equivalence():
    checked = 0
    for coeffs in product(range(-5, 6), repeat=2):
        for lead in range(-5, 6):
            if lead == 0:
                continue
            f = IntPoly(coeffs + (lead,))
            engine = shifted_eisenstein(f)
            oracle = naive_shift_scan(f)
            assert engine.verdict is oracle.verdict, (f, engine, oracle)
            if engine.verdict is Verdict.YES:
                assert verify_certificate(f, engine.certificate), (f, engine)
                assert verify_certificate(f, oracle.certificate), (f, oracle)
            checked += 1
    for coeffs in product(range(-3, 4), repeat=3):
        for lead in range(-3, 4):
            if lead == 0:
                continue
            f = IntPoly(coeffs + (lead,))
            engine = shifted_eisenstein(f)
            oracle = naive_shift_scan(f)
            assert engine.verdict is oracle.verdict, (f, engine, oracle)
            if engine.verdict is Verdict.YES:
                assert verify_certificate(f, engine.certificate), (f, engine)
                assert verify_certificate(f, oracle.certificate), (f, oracle)
            checked += 1
    print(
        "criterion 4 (oracle equivalence, %d polynomials, certificates verified): PASS"
        % checked
    )


def test_criterion_5_negative_family():
    start = time.perf_counter()
    for n in range(3, 9):
        f = IntPoly((2, 1) + (0,) * (n - 2) + (1,))
        decision = shifted_eisenstein(f)
        assert decision.verdict is Verdict.NO_CERTIFIED, (n, decision)
    quad = IntPoly((2, 1, 1))
    decision = shifted_eisenstein(quad)
    assert decision.verdict is Verdict.YES
    assert verify_certificate(quad, decision.certificate)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "criterion 5 (x^n+x+2 certified NO for n=3..8, YES at n=2, %.3f s): PASS"
        % elapsed
    )


def _random_poly(rng, deg, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
    lead = rng.randint(-bound, bound)
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return IntPoly(tuple(coeffs + [lead]))


def _random_eisenstein(rng, deg, p):
    coeffs = [p * rng.randint(-9, 9) for _ in range(1, deg)]
    u = rng.randint(-9, 9)
    while u % p == 0:
        u = rng.randint(-9, 9)
    lead = rng.randint(-9, 9)
    while lead % p == 0:
        lead = rng.randint(-9, 9)
    return IntPoly(tuple([p * u] + coeffs + [lead]))


def test_criterion_6_property_suites():
    rng = random.Random(0xACCE97)
    cases = {}

    count = 0
    for _ in range(1000):
        f = _random_poly(rng, rng.randrange(2, 6), 30)
        s = rng.randint(-15, 15)
        assert discriminant(taylor_shift(f, s)) == discriminant(f), (f, s)
        count += 1
    cases["discriminant shift invariance"] = count

    count = 0
    for _ in range(1000):
        f = _random_poly(rng, rng.randrange(2, 6), 40)
        assert abs(discriminant(f)) <= mahler_bound(f), f
        count += 1
    cases["Mahler bound"] = count

    count = 0
    for _ in range(1000):
        f = _random_poly(rng, rng.randrange(1, 7), 60)
        n = f.degree
        shifted = taylor_shift(f, 1)
        assert max(map(abs, shifted.coeffs)) <= 2**n * max(map(abs, f.coeffs)), f
        count += 1
    cases["shift-by-1 height bound"] = count

    count = 0
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        f = _random_eisenstein(rng, rng.randrange(2, 6), p)
        assert is_eisenstein_with(f, p)
        assert not is_eisenstein_with(taylor_shift(f, 1), p), (f, p)
        count += 1
    cases["Eisenstein breaks under shift by 1"] = count

    count = 0
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        f = taylor_shift(
            _random_eisenstein(rng, rng.randrange(2, 5), p), rng.randint(-20, 20)
        )
        decision = shifted_eisenstein(f)
        assert decision.verdict is Verdict.YES, f
        s, q = decision.certificate.shift, decision.certificate.prime
        for k in range(-10, 11):
            assert is_eisenstein_with(taylor_shift(f, s + k * q), q), (f, s, q, k)
            count += 1
    assert count >= 1000
    cases["certificate periodicity"] = count

    count = 0
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 11])
        f = taylor_shift(
            _random_eisenstein(rng, rng.randrange(2, 5), p), rng.randint(-25, 25)
        )
        decision = shifted_eisenstein(f)
        assert decision.verdict is Verdict.YES, f
        s, q = decision.certificate.shift, decision.certificate.prime
        assert evaluate(f, s) % q == 0, (f, s, q)
        count += 1
    cases["shift-root necessity"] = count

    assert all(v >= 1000 for v in cases.values()), cases
    print(
        "criterion 6 (property suites, %s cases, zero failures): PASS"
        % ", ".join("%d" % v for v in cases.values())
    )


def _direct_eisenstein_count(h):
    primes = [p for p in range(2, h + 1) if all(p % d for d in range(2, p))]
    count = 0
    for a0 in range(-h, h + 1):
        for a1 in range(-h, h + 1):
            for a2 in range(-h, h + 1):
                if a2 == 0:
                    continue
                for p in primes:
                    if a0 % p == 0 and a1 % p == 0 and a0 % (p * p) and a2 % p:
                        count += 1
                        break
    return count


def _direct_h_subset_count(n, d, h):
    count = 0
    for coeffs in product(range(-h, h + 1), repeat=n + 1):
        if coeffs[-1] == 0:
            continue
        if any(c % d for c in coeffs[:n]):
            continue
        if math.gcd(coeffs[0] // d, d) != 1 or math.gcd(coeffs[-1], d) != 1:
            continue
        count += 1
    return count


def test_criterion_7_census_fixed_points_and_constants():
    assert _direct_eisenstein_count(1) == 0
    assert exact_census(2, 1).eisenstein == 0
    assert _direct_eisenstein_count(2) == 12
    assert exact_census(2, 2).eisenstein == 12
    assert _direct_h_subset_count(2, 2, 2) == 12
    assert census_h_subset(2, 2, 2) == 12

    primes = first_primes(10000)
    partial, doubled = sinh_bound_check(primes)
    assert 0.45 < float(partial) < 0.46, partial
    assert float(doubled) < 1, doubled
    report = density_report(2, primes)
    p2, tail = report.p_n, report.p_n_tail
    assert float(p2 + tail) <= 0.18, (p2, tail)
    print(
        "criterion 7 (census fixed points 0/12/12 vs direct enumeration; "
        "sum 1/p^2 = %.4f, 2*sinh = %.4f < 1, P_2 <= 0.18): PASS"
        % (float(partial), float(doubled))
    )


def test_criterion_8_worker_determinism():
    for n, h, samples in ((3, 10**6, 2048), (2, 100, 600)):
        outputs = []
        for workers in (1, 2, 4):
            report = monte_carlo(n, h, samples, seed=42, workers=workers)
            outputs.append(
                json.dumps(report.as_record(), sort_keys=True) + reports_to_csv([report])
            )
        assert outputs[0] == outputs[1] == outputs[2], (n, h, samples)
    print("criterion 8 (byte-identical output for workers 1/2/4): PASS")