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
step.  F follows from the requested `dps`, the prime count and the second
prime, and is proven sufficient; each value becomes an `mpmath.mpf` once,
at `dps` significant digits.

mpmath is imported inside the functions that build or format an mpf, not
with this module, so `import eisenshift` and the CLI subcommands other than
`density` never load it; the first density call does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import DomainError
from .primes import first_primes

__all__ = [
    "DensityReport",
    "sinh_bound_check",
    "density_report",
]

DEFAULT_DPS = 50


def _check_args(primes: list[int], dps: int, n: int = 2) -> None:
    """DomainError unless n >= 2 and dps >= 1 are ints and primes is
    first_primes(k) for some k >= 1."""
    if type(n) is not int or n < 2:
        raise DomainError("density constants need an int degree n >= 2, got %r" % (n,))
    if type(dps) is not int or dps < 1:
        raise DomainError("need an int dps >= 1 significant digits, got %r" % (dps,))
    # sum() runs at C speed; a float, Fraction or Decimal makes the sum one,
    # and a bool never equals a prime.
    try:
        count = len(primes)
        head = min(count, 8)
        valid = (
            type(sum(primes)) is int
            and count > 0
            # The head refuses most wrong lists before first_primes sieves,
            # and caches, the primes up to the count-th one.
            and list(islice(primes, head)) == first_primes(head)
            and list(primes) == first_primes(count)
        )
    except TypeError:
        valid = False
    if not valid:
        raise DomainError("need the first k >= 1 primes, as first_primes(k) gives them")


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


def density_report(n: int, primes: list[int], dps: int = DEFAULT_DPS) -> DensityReport:
    """All density constants for degree n over the supplied primes.

    With N primes and F fractional bits, the floors bound the fixed-point
    errors: below N * 2^-F in sum x_p and in 1 - prod(1 - x_p) (each step of
    the product adds less than one unit of error), and below
    (N-1)(2 P_n + N 2^-F) 2^-F in tau_n.  Let prec be the binary precision
    that `dps` digits give, t = prec + 8, T = 2^t, b the bit length of N,
    q the second prime (the first when N = 1), L the bit length of
    floor(q^(n+2) / (q-1)^2), and F = t + b + 1 + L.  In units of 2^-F
    write X_p for the floored terms, S = sum X_p, R = S - X_first,
    Q = 2^F - prod for the product and D = sum_{p != p'} X_p X_p' for the
    pair sum.  Then, with A = 2^(F-L) = 2T * 2^b > 2T * N:

    - x_q > 2^-L, so X_q >= A.
    - x_p = (p-1)^2 / p^(n+2) falls as p grows (its log-derivative is
      (n+2 - n p) / (p (p-1)) <= 0 for p >= 2), so X_first >= X_q >= A.
    - S >= X_first >= A > N T: the floors lose below 2^-t of P_n.
    - The first product step is exact and no later step raises the product,
      so Q >= X_first >= A >= N (T + 1): the floors lose below 2^-t of rho_n.
    - For N = 1, D and its error are 0.  For N >= 2, R >= X_q >= A and
      D >= 2 X_first R, so
      2D >= 2A (X_first + R) = 2A S >= (N-1) T (2S + N), as (N-1) T < A/2
      and (N-1) T N < A^2: the floors lose below 2^-(t-1) of tau_n.  2^-t
      itself can fail, narrowly: at n = 2 and dps = 1 it does for the
      primes 2^32 - 17, 2^32 - 5 and the first 2^20 - 3 primes above 2^50.

    No primality is used, so this holds for any ascending list of integers
    >= 2.  Then gamma_n, which divides tau_n by rho_n and floors once more,
    lies within 6 * 2^-t, since tau_n/rho_n < 0.6 (P_n < sum 1/p^2 < 0.46,
    tau_n <= P_n^2 and rho_n >= P_n - tau_n/2).  The one conversion of each
    value to an mpf adds at most 2^-prec, and 2^-prec < 10^-dps / 7.  So
    p_n, rho, tau and gamma each lie within a relative 10^-dps of the exact
    value of its sum or product over the supplied primes.

    p_n_tail bounds |p_n - P_n| for the sum over all primes: the truncation
    tail B^(1-n)/(n-1), with B the largest prime supplied, plus the rounding
    allowance 10^-dps * p_n.  The tail dominates sum_{m > B} m^(-n), every
    dropped term being below p^(-n); summing over all integers rather than
    primes leaves it far above the true tail, which absorbs its own rounding.
    The tail covers only primes above B, so every entry point here takes
    just an initial segment first_primes(k) of the primes (DomainError
    otherwise): a gap, a duplicate or a composite would leave p_n off by
    more than p_n_tail.
    """
    from mpmath import ldexp, mp, mpf, workdps

    _check_args(primes, dps, n)
    count = len(primes)
    with workdps(dps):
        target = mp.prec + 8
        second = primes[1] if count > 1 else primes[0]
        frac_bits = target + count.bit_length() + 1 + (
            second ** (n + 2) // (second - 1) ** 2
        ).bit_length()
        total, pairs, rho = _fixed_point_sums(n, primes, frac_bits)
        assert (
            total >= count << target
            and rho - count >= count << target
            and 2 * pairs >= (count - 1) * (2 * total + count) << target
        ), "the fixed-point error bounds above failed"
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
    from mpmath import ldexp, mp, mpf, sinh, workdps

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
    """Density constants for one degree over one truncated prime list.

    p_n, p_n_tail, rho, tau and gamma are `mpmath.mpf` values; mpmath is
    imported by `density_report`, which makes them, not with this module.
    """

    n: int
    prime_count: int
    largest_prime: int
    p_n: object
    p_n_tail: object
    rho: object
    tau: object
    gamma: object

    def as_record(self) -> dict:
        from mpmath import mp

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

