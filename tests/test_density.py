"""Density constants: truncated prime sums/products with tail bounds."""

import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf, primezeta, workdps

import eisenshift.density as density_module
import eisenshift.primes as primes_module
from eisenshift import (
    DomainError,
    density_report,
    first_primes,
    predicted_eisenstein_count,
    sinh_bound_check,
)

PRIMES = first_primes(2000)


def _mpmath_oracle(n, primes, dps):
    """(P_n, rho_n, tau_n, gamma_n) by a plain mpmath loop at `dps` digits.

    A reference for the integer fixed-point accumulator, sharing no code with
    it.  It loses digits to cancellation in P_n^2 - sum x_p^2 and in
    1 - prod(1 - x_p), so callers give it guard digits.
    """
    with workdps(dps):
        total = mpf(0)
        squares = mpf(0)
        prod = mpf(1)
        for p in primes:
            x = mpf((p - 1) ** 2) / mpf(p) ** (n + 2)
            total += x
            squares += x * x
            prod *= 1 - x
        rho = 1 - prod
        tau = total * total - squares
        gamma = (1 - tau / rho) / mpf(2) ** (n * n + n)
        return +total, +rho, +tau, +gamma


def _worst_relative_error(n, primes, dps, guard=30):
    """Largest relative gap of density_report at `dps` digits to the oracle."""
    report = density_report(n, primes, dps)
    reference = _mpmath_oracle(n, primes, dps + guard)
    with workdps(dps + guard):
        values = (report.p_n, report.rho, report.tau, report.gamma)
        return max(abs(v - r) / r for v, r in zip(values, reference))


def test_p_n_matches_prime_zeta_combination():
    # (p-1)^2/p^(n+2) = p^(-n) - 2 p^(-n-1) + p^(-n-2), so the full sum is
    # P(n) - 2 P(n+1) + P(n+2) with P the prime zeta function, which mpmath
    # evaluates by an unrelated Mobius/log-zeta method.
    for n in (2, 3, 4, 5, 10):
        report = density_report(n, PRIMES, dps=40)
        value, tail = report.p_n, report.p_n_tail
        with workdps(40):
            exact = primezeta(n) - 2 * primezeta(n + 1) + primezeta(n + 2)
            assert abs(value - exact) < tail, (n, value, exact, tail)
            assert tail < mpf(10) ** (-3 * (n - 1))


def test_p2_upper_bound():
    report = density_report(2, PRIMES)
    assert report.p_n + report.p_n_tail <= 0.18


def test_rho_between_p_n_terms():
    # 1 - prod(1 - x_p) lies between max x_p and sum x_p
    for n in (2, 3, 4):
        report = density_report(n, PRIMES)
        assert report.rho <= report.p_n
        assert report.rho >= (2 - 1) ** 2 / mpf(2) ** (n + 2)


def test_tau_is_small_positive_correction():
    for n in (2, 3, 4):
        report = density_report(n, PRIMES)
        assert 0 < report.tau < report.p_n * report.p_n


def test_gamma_decreases_fast_in_degree():
    gammas = [density_report(n, PRIMES).gamma for n in (2, 3, 4, 5)]
    for a, b in zip(gammas, gammas[1:]):
        assert b < a / 10
    for g in gammas:
        assert 0 < g < 1


def test_density_report_fields_and_record():
    report = density_report(3, PRIMES)
    assert report.n == 3
    assert report.prime_count == len(PRIMES)
    assert report.largest_prime == PRIMES[-1]
    record = report.as_record()
    assert set(record) == {
        "n", "prime_count", "largest_prime", "p_n", "p_n_tail", "rho", "tau", "gamma",
    }


def test_density_report_matches_mpmath_oracle(monkeypatch):
    # density_report promises P_n, rho_n, tau_n and gamma_n each within a
    # relative 10^-dps of the exact value over the supplied primes.  The
    # oracle's 30 guard digits cover the few it loses to cancellation.
    worst = {}
    for dps in (40, 50, 80):
        for n in (2, 3, 4, 5, 10):
            worst[dps, n] = _worst_relative_error(n, PRIMES, dps)
            assert worst[dps, n] < mpf(10) ** -dps, (dps, n, worst[dps, n])
    for n in (2, 3, 4, 5, 10):
        assert worst[80, n] < worst[50, n] * mpf(10) ** -20, (n, worst[50, n], worst[80, n])
    # Two terms far apart: tau_10 ~ 1e-43 against P_10^2 ~ 6e-8, so the
    # oracle loses some 35 digits to cancellation and gets 60 guard digits.
    # The error proof holds for any ascending integers >= 2, so the check
    # that admits only first_primes(k) is switched off for this list.
    monkeypatch.setattr(density_module, "_check_args", lambda *args: None)
    assert _worst_relative_error(10, [2, 7919, 104729], 50, guard=60) < mpf(10) ** -50


def test_first_precision_meets_the_proven_bounds_at_their_edge(monkeypatch):
    # The error-bound proof uses no primality, so ascending integers stand in
    # for primes here.  With 2^20 - 1 entries, the first two just below 2^32
    # and the rest above 2^50 (their terms floor to 0), the pair sum misses
    # the 2^-t bound and meets the proven 2^-(t-1) one.  The entries above
    # 2^50 change the constants by about 2^-17 relative.
    head = [2**32 - 17, 2**32 - 5]
    edge = head + list(range(2**50 + 1, 2**50 + 2**21 - 5, 2))
    assert len(edge) == 2**20 - 1
    sums = []
    fixed_point_sums = density_module._fixed_point_sums

    def recording(*args):
        sums.append(fixed_point_sums(*args))
        return sums[-1]

    monkeypatch.setattr(density_module, "_fixed_point_sums", recording)
    monkeypatch.setattr(density_module, "_check_args", lambda *args: None)
    report = density_report(2, edge, dps=1)
    with workdps(1):
        target = mp.prec + 8
    [(total, pairs, _)] = sums
    count = len(edge)
    assert pairs < (count - 1) * (2 * total + count) << target
    assert 2 * pairs >= (count - 1) * (2 * total + count) << target
    reference = _mpmath_oracle(2, head, 30)
    with workdps(30):
        values = (report.p_n, report.rho, report.tau, report.gamma)
        assert max(abs(v - r) / r for v, r in zip(values, reference)) < mpf(10) ** -1


def test_truncation_stability():
    # Growing the prime list changes the constants by less than the tail.
    short = density_report(3, first_primes(500))
    long = density_report(3, PRIMES)
    assert abs(long.p_n - short.p_n) < short.p_n_tail
    assert long.rho >= short.rho


def test_sinh_bound_window():
    partial, doubled = sinh_bound_check(PRIMES)
    assert 0.45 < partial < 0.46
    assert doubled < 1
    assert abs(doubled - 2 * mp.sinh(partial)) < 1e-12


def test_sinh_bound_check_fixed_point_matches_mpmath_loop():
    # The former mpmath loop, run with 20 guard digits, is the reference.
    for dps in (15, 50, 80):
        with workdps(dps + 20):
            exact = sum(mpf(1) / (mpf(p) * p) for p in PRIMES) + mpf(1) / PRIMES[-1]
        partial, doubled = sinh_bound_check(PRIMES, dps=dps)
        with workdps(dps + 20):
            assert abs(partial - exact) < exact * mpf(10) ** -dps, dps
            assert abs(doubled - 2 * mp.sinh(exact)) < doubled * mpf(10) ** (1 - dps), dps


def test_sinh_bound_check_rejects_bad_dps():
    for dps in (0, -3):
        with pytest.raises(DomainError):
            sinh_bound_check(PRIMES, dps=dps)


def test_predicted_count_scale():
    # Main term rho_2 * 2^3 * H^3 at H=2 should be near the exact count 12.
    pred = predicted_eisenstein_count(2, 2, PRIMES)
    assert 9 < pred < 17


def test_precision_isolation_and_validation():
    before = mp.dps
    density_report(10, PRIMES, dps=80)
    assert mp.dps == before
    with pytest.raises(DomainError):
        density_report(1, PRIMES)
    with pytest.raises(DomainError):
        density_report(3, [])
    with pytest.raises(DomainError):
        density_report(3, PRIMES, dps=0)


@pytest.mark.parametrize(
    "primes",
    ([0], [1], [3, 2], [7919, 2, 104729], [], [2, 104729], [4, 6, 9], [2, 3, 3, 5], [2, 3, 5, 11]),
)
def test_every_density_entry_point_rejects_a_bad_prime_list(primes):
    # [0] and [1] divided by zero, sinh_bound_check([1]) gave a nonsense
    # sum, and [3, 2] took 2 as the largest prime for the tail.  A gap, a
    # duplicate or a composite made p_n_tail too small: [2, 104729] at
    # n = 10 claimed 7e-47 and missed 7.6e-6.
    with pytest.raises(DomainError):
        density_report(3, primes)
    with pytest.raises(DomainError):
        sinh_bound_check(primes)
    with pytest.raises(DomainError):
        predicted_eisenstein_count(3, 10, primes)


def test_a_wrong_long_prime_list_is_refused_before_any_sieve(monkeypatch):
    # It used to be refused only after sieving, and caching, the first
    # 10^6 primes.  The cache starts over at the primes below 1000.
    small = primes_module._SMALL_PRIMES
    monkeypatch.setattr(primes_module, "_sieve_cache", small)
    monkeypatch.setattr(primes_module, "_sieve_cover", 1000)
    monkeypatch.setattr(primes_module, "_sieve_products", primes_module._block_products(small))
    with pytest.raises(DomainError):
        density_report(3, list(range(2, 10**6 + 2)))
    assert primes_module._sieve_cover == 1000


@pytest.mark.parametrize("n, dps", [(3.0, 50), (True, 50), (1, 50), (3, 1.5), (3, 0)])
def test_density_entry_points_reject_a_bad_degree_or_precision(n, dps):
    with pytest.raises(DomainError):
        density_report(n, PRIMES[:10], dps)
    with pytest.raises(DomainError):
        predicted_eisenstein_count(n, 10, PRIMES[:10], dps)
    if dps != 50:
        with pytest.raises(DomainError):
            sinh_bound_check(PRIMES[:10], dps)


def test_negative_prime_lists_fail_fast():
    # density_report(3, [-2]) and (3, [-3]) used to run without end, their
    # memory growing, and sinh_bound_check([-3]) returned a negative sum.  A
    # separate process, so such a hang is killed after the timeout instead
    # of stalling the suite.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from eisenshift import *\n"
        "for primes in ([-2], [-3]):\n"
        "    for call in (lambda: density_report(3, primes), lambda: sinh_bound_check(primes),\n"
        "                 lambda: predicted_eisenstein_count(3, 10, primes)):\n"
        "        try:\n            call()\n        except DomainError:\n            print('refused')\n"
    ) % src
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert done.stdout == "refused\n" * 6, done.stderr