"""The d-local box count behind the density lower bound, kept as an oracle.

For a squarefree d, `census_h_subset` counts the height-<=H polynomials
whose non-leading coefficients are divisible by d, with a_0/d and a_n
coprime to d; `h_subset_main_term` is the prediction it converges to.
`eisenstein_count` sums `census_h_subset` by inclusion-exclusion over
squarefree d into the exact Eisenstein count of the box (ROADMAP item
20).  Only tests call them, so their inputs are trusted: no argument
checks, and a factorization the default budget cannot finish fails an
assert.
"""

import math

from eisenshift import Factorization, factorize


def _certified_factors(d: int) -> Factorization:
    fact = factorize(d)
    assert fact.certified, d
    return fact


def euler_phi(d: int) -> int:
    """Euler totient of d >= 1."""
    out = d
    for p, _ in _certified_factors(d).factors:
        out -= out // p
    return out


def mobius(d: int) -> int:
    """Mobius function of d >= 1."""
    fact = _certified_factors(d)
    for _, e in fact.factors:
        if e > 1:
            return 0
    return -1 if len(fact.factors) % 2 else 1


def census_h_subset(n: int, d: int, height: int) -> int:
    """Exact count of the height-<=H box slice used for the d-local census.

    Counts degree-n vectors with d | a_i for all i < n, gcd(a_0/d, d) = 1,
    and gcd(a_n, d) = 1.  The three conditions are coordinatewise, so the
    count is a product of one-dimensional counts.  d must be squarefree.
    """
    mult = height // d
    const_count = 0
    for m in range(-mult, mult + 1):
        if math.gcd(m, d) == 1:
            const_count += 1
    middle_count = 2 * mult + 1
    lead_count = 0
    for a in range(-height, height + 1):
        if a != 0 and math.gcd(a, d) == 1:
            lead_count += 1
    return const_count * middle_count ** (n - 1) * lead_count


def h_subset_main_term(n: int, d: int, height: int) -> float:
    """Main term 2^(n+1) H^(n+1) phi(d)^2 / d^(n+2) for census_h_subset."""
    phi = euler_phi(d)
    return 2 ** (n + 1) * height ** (n + 1) * phi * phi / d ** (n + 2)


def eisenstein_count(n: int, height: int) -> int:
    """Exact number of Eisenstein polynomials in the degree-n, height-H box.

    Being Eisenstein at p is `census_h_subset`'s condition at d = p, the
    conditions at the primes of a squarefree d are coordinatewise and hold
    together exactly when `census_h_subset(n, d, H)` counts the polynomial,
    and p | a_0 != 0 forces p <= H.  So inclusion-exclusion over squarefree
    1 < d <= H gives the count.
    """
    total = 0
    for d in range(2, height + 1):
        mu = mobius(d)
        if mu:
            total -= mu * census_h_subset(n, d, height)
    return total
