"""Density constants for Eisenstein and shifted-Eisenstein polynomials.

For degree n, the local density of Eisenstein behaviour at a prime p is
(p-1)^2 / p^(n+2): the constant term must be a nonzero multiple of p modulo
p^2, the middle coefficients multiples of p, and the leading coefficient a
non-multiple.  Everything else here is built from these local terms:

    P_n   = sum over p of (p-1)^2 / p^(n+2)
    rho_n = 1 - prod over p of (1 - (p-1)^2 / p^(n+2))
    tau_n = P_n^2 - sum over p of (p-1)^4 / p^(2n+4)
    gamma_n = (1 - tau_n/rho_n) / 2^(n^2+n)

Sums and products run over an explicit finite prime list, and P_n comes
with a bound on its truncation tail.

The size of gamma_n is no reason for multiprecision: gamma_10 ~ 7.7e-34 is
an ordinary double.  The hazard is cancellation.  In floating point,
1 - prod(1 - x_p) sits near x_2 = 2^-(n+2) and loses about 0.3(n+2) digits
(3.6 at n = 10); tau_n = P_n^2 - sum x_p^2 ~ 2 x_2 x_3 loses about
0.18(n+2) - 0.9 digits (1.2 at n = 10).  Both losses grow with n.  So
`density_report` accumulates in binary fixed point on exact integers: each
local term x_p is floored to F fractional bits, the sums (the pair sum
behind tau_n included) are then exact, and the product floors once per
step.  F is chosen from the requested `dps` and checked against the values
it produced; each value becomes an mpf once, at `dps` significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import ldexp, mp, mpf, sinh, workdps

from .errors import DomainError

__all__ = [
    "DensityReport",
    "predicted_eisenstein_count",
    "sinh_bound_check",
    "density_report",
]

DEFAULT_DPS = 50


def _check_args(primes: list[int], dps: int, n: int = 2) -> None:
    """DomainError unless n >= 2 and dps >= 1 are ints and primes is a
    nonempty ascending list whose first element is at least 2."""
    if type(n) is not int or n < 2:
        raise DomainError("density constants need an int degree n >= 2, got %r" % (n,))
    if type(dps) is not int or dps < 1:
        raise DomainError("need an int dps >= 1 significant digits, got %r" % (dps,))
    # sorted() runs at C speed; a pairwise Python check costs four times more.
    if not primes or primes[0] < 2 or list(primes) != sorted(primes):
        raise DomainError("need a nonempty ascending prime list starting at >= 2")


def _fixed_point_sums(n: int, primes: list[int], frac_bits: int):
    """One pass over the primes in fixed point with `frac_bits` fractional bits.

    With x_p = floor((p-1)^2 * 2^F / p^(n+2)) it returns the exact integers
    (sum x_p, sum_{p != q} x_p x_q, 2^F - prod (1 - x_p)): the first and last
    at scale 2^F, the middle one at scale 2^(2F).  The pair sum is
    (sum x_p)^2 - sum x_p^2 of integers, so it is exact; the product floors
    once per step.
    """
    one = 1 << frac_bits
    total = squares = 0
    prod = one
    for p in primes:
        x = ((p - 1) ** 2 << frac_bits) // p ** (n + 2)
        total += x
        squares += x * x
        prod = prod * (one - x) >> frac_bits
    return total, total * total - squares, one - prod


def _missing_bits(error: int, value: int, bits: int) -> int:
    """Extra fractional bits that bring error below value * 2^-bits (0: none)."""
    need = error << bits
    if value >= need:
        return 0
    return need.bit_length() - max(value, 1).bit_length() + 1


def density_report(n: int, primes: list[int], dps: int = DEFAULT_DPS) -> DensityReport:
    """All density constants for degree n over the supplied primes.

    With N primes and F fractional bits, the floors bound the fixed-point
    errors: below N * 2^-F in sum x_p and in 1 - prod(1 - x_p) (each step of
    the product adds less than one unit of error), and below
    (N-1)(2 P_n + N 2^-F) 2^-F in tau_n.  F starts from the working
    precision, the prime count and the size of the second local term, and is
    raised until each of these is below 2^-(prec+8) of its value, with prec
    the binary precision that `dps` digits give.  That leaves gamma_n, which
    divides tau_n by rho_n and floors once more, within 6 * 2^-(prec+8), since
    tau_n/rho_n < 0.6 (P_n < sum 1/p^2 < 0.46, tau_n <= P_n^2 and
    rho_n >= P_n - tau_n/2).
    The one conversion of each value to an mpf adds at most 2^-prec, and
    2^-prec < 10^-dps / 7.  So p_n, rho, tau and gamma each lie within a
    relative 10^-dps of the exact value of its sum or product over the
    supplied primes.

    p_n_tail bounds |p_n - P_n| for the sum over all primes: the truncation
    tail B^(1-n)/(n-1), with B the largest prime supplied, plus the rounding
    allowance 10^-dps * p_n.  The tail dominates sum_{m > B} m^(-n), every
    dropped term being below p^(-n); summing over all integers rather than
    primes leaves it far above the true tail, which absorbs its own rounding.
    """
    _check_args(primes, dps, n)
    count = len(primes)
    with workdps(dps):
        target = mp.prec + 8
        # tau_n ~ 2 x_a x_b for the two leading terms, so its floor error asks
        # for about log2(1/x_b) more bits than that of P_n.
        second = primes[1] if count > 1 else primes[0]
        frac_bits = target + count.bit_length() + 1 + (
            second ** (n + 2) // (second - 1) ** 2
        ).bit_length()
        while True:
            total, pairs, rho = _fixed_point_sums(n, primes, frac_bits)
            missing = max(
                _missing_bits(count, total, target),
                _missing_bits(count, rho - count, target),
                _missing_bits((count - 1) * (2 * total + count), pairs, target),
            )
            if not missing:
                break
            frac_bits += missing
        # 2^F * (1 - tau/rho), floored once more
        complement = ((rho << frac_bits) - pairs) // rho
        p_n = ldexp(mpf(total), -frac_bits)
        tail = mpf(primes[-1]) ** (1 - n) / (n - 1) + p_n * mpf(10) ** -dps
        return DensityReport(
            n=n,
            prime_count=count,
            largest_prime=primes[-1],
            p_n=p_n,
            p_n_tail=tail,
            rho=ldexp(mpf(rho), -frac_bits),
            tau=ldexp(mpf(pairs), -2 * frac_bits),
            gamma=ldexp(mpf(complement), -(frac_bits + n * n + n)),
        )


def predicted_eisenstein_count(n: int, height: int, primes: list[int], dps: int = DEFAULT_DPS):
    """Main-term prediction rho_n * 2^(n+1) * height^(n+1) for #E_n(height)."""
    if height < 1:
        raise DomainError("height must be >= 1")
    rho = density_report(n, primes, dps).rho
    with workdps(dps):
        return +(rho * mpf(2) ** (n + 1) * mpf(height) ** (n + 1))


def sinh_bound_check(primes: list[int], dps: int = DEFAULT_DPS):
    """(partial sum of 1/p^2 with tail, 2*sinh of it) for the union bound.

    With enough primes the first value settles in (0.45, 0.46) and the
    second stays below 1, which is what makes the two-prime correction
    argument close.

    The sum uses `density_report`'s fixed point: with N primes, each 1/p^2 is
    floored to F = prec + 8 + bitlength(N) fractional bits (prec the binary
    precision of `dps` digits) and the integers are summed exactly, so the
    floors lose less than N * 2^-F < 2^-(prec+8), a relative 2^-(prec+6) as
    the sum is at least 1/4.  Converting the sum to an mpf, computing the
    tail bound 1/B (B the largest prime) and adding it round three times more,
    each by at most a relative 2^-prec, and 2^-prec < 10^-dps / 7.  So the
    first value is within a relative 10^-dps of the exact partial sum plus
    1/B; since 1/B is far above the true tail, it stays an upper bound for
    the sum over all primes.  2*sinh is evaluated by mpmath at `dps` digits.
    """
    _check_args(primes, dps)
    with workdps(dps):
        frac_bits = mp.prec + 8 + len(primes).bit_length()
        one = 1 << frac_bits
        total = sum(one // (p * p) for p in primes)
        # tail: sum_{m > B} 1/m^2 <= 1/B
        total = ldexp(mpf(total), -frac_bits) + mpf(1) / primes[-1]
        return total, +(2 * sinh(total))


@dataclass(frozen=True)
class DensityReport:
    """Density constants for one degree over one truncated prime list."""

    n: int
    prime_count: int
    largest_prime: int
    p_n: object
    p_n_tail: object
    rho: object
    tau: object
    gamma: object

    def as_record(self) -> dict:
        return {
            "n": self.n,
            "prime_count": self.prime_count,
            "largest_prime": self.largest_prime,
            "p_n": mp.nstr(self.p_n, 12),
            "p_n_tail": mp.nstr(self.p_n_tail, 6),
            "rho": mp.nstr(self.rho, 12),
            "tau": mp.nstr(self.tau, 12),
            "gamma": mp.nstr(self.gamma, 12),
        }

