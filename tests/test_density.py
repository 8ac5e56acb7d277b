"""Density constants: truncated prime sums/products with tail bounds."""

import pytest
from mpmath import mp, mpf, primezeta, workdps

from eisenshift import (
    DomainError,
    compute_gamma,
    compute_p_n,
    compute_rho,
    compute_tau,
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
        value, tail = compute_p_n(n, PRIMES, dps=40)
        with workdps(40):
            exact = primezeta(n) - 2 * primezeta(n + 1) + primezeta(n + 2)
            assert abs(value - exact) < tail, (n, value, exact, tail)
            assert tail < mpf(10) ** (-3 * (n - 1))


def test_p2_upper_bound():
    value, tail = compute_p_n(2, PRIMES)
    assert value + tail <= 0.18


def test_rho_between_p_n_terms():
    # 1 - prod(1 - x_p) lies between max x_p and sum x_p
    for n in (2, 3, 4):
        p_n, _ = compute_p_n(n, PRIMES)
        rho = compute_rho(n, PRIMES)
        assert rho <= p_n
        assert rho >= (2 - 1) ** 2 / mpf(2) ** (n + 2)


def test_tau_is_small_positive_correction():
    for n in (2, 3, 4):
        p_n, _ = compute_p_n(n, PRIMES)
        tau = compute_tau(n, PRIMES)
        assert 0 < tau < p_n * p_n


def test_gamma_decreases_fast_in_degree():
    gammas = [compute_gamma(n, PRIMES) for n in (2, 3, 4, 5)]
    for a, b in zip(gammas, gammas[1:]):
        assert b < a / 10
    for g in gammas:
        assert 0 < g < 1


def test_density_report_consistent_with_parts():
    report = density_report(3, PRIMES)
    p_n, tail = compute_p_n(3, PRIMES)
    assert report.n == 3
    assert report.prime_count == len(PRIMES)
    assert report.largest_prime == PRIMES[-1]
    assert report.p_n == p_n
    assert report.p_n_tail == tail
    assert report.rho == compute_rho(3, PRIMES)
    assert report.tau == compute_tau(3, PRIMES)
    assert report.gamma == compute_gamma(3, PRIMES)
    record = report.as_record()
    assert set(record) == {
        "n", "prime_count", "largest_prime", "p_n", "p_n_tail", "rho", "tau", "gamma",
    }


def test_density_report_matches_mpmath_oracle():
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
    # Out of order, the first guess of fractional bits falls short and is
    # raised.  Here tau_10 ~ 1e-43 against P_10^2 ~ 6e-8: the oracle loses
    # some 35 digits to cancellation, so it gets 60 guard digits.
    assert _worst_relative_error(10, [7919, 2, 104729], 50, guard=60) < mpf(10) ** -50


def test_truncation_stability():
    # Growing the prime list changes the constants by less than the tail.
    short = first_primes(500)
    value_short, tail_short = compute_p_n(3, short)
    value_long, _ = compute_p_n(3, PRIMES)
    assert abs(value_long - value_short) < tail_short
    assert compute_rho(3, PRIMES) >= compute_rho(3, short)


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
    compute_gamma(10, PRIMES, dps=80)
    assert mp.dps == before
    with pytest.raises(DomainError):
        compute_p_n(1, PRIMES)
    with pytest.raises(DomainError):
        compute_rho(3, [])
    with pytest.raises(DomainError):
        density_report(3, PRIMES, dps=0)