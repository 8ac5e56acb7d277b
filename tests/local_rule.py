"""Monte Carlo's local rule and `iroot` as they were before they took
shortcuts, kept as oracles.

`trial_local_verdict` is `eisenstein._local_verdict` when it trial-divided
G' to T = floor(G'^(1/5)) and stopped at the first prime dividing G' once,
and `trial_divides_once` is that trial division alone; the rule's
`eisenstein._divides_once` now finds no prime, only whether one exists, from
one gcd with a cached product of primes.  `newton_iroot` is `iroot` when
every root ran Newton's iteration from 2^ceil(bits/k); `iroot` now takes
`math.isqrt` for square roots and a float seed below 2^1000.  The oracles
share `_local_gcd`, the h_0 strip, trial division and `_shift_at` with the
package, so they check only what changed.
"""

from eisenshift import Verdict
from eisenshift.eisenstein import (
    _local_gcd,
    _prime_divisors,
    _shift_at,
    _strip_primes_of,
)
from eisenshift.primes import _trial_division


def newton_iroot(x, k):
    """Floor k-th root of x >= 0 and whether it is exact, by Newton's iteration."""
    if k == 1 or x in (0, 1):
        return x, True
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    return r, r**k == x


def trial_divides_once(g, budget):
    """`_divides_once` by trial division of g >= 1 to T = floor(g^(1/5)),
    stopping at the first prime dividing g once; None when T exceeds the
    trial bound."""
    bound = newton_iroot(g, 5)[0]
    if bound > budget.trial_bound:
        return None
    # A rest the walk yields, below (T+1)^2 with no prime up to T, is a prime
    # dividing g exactly once, although it exceeds the bound; a rest it
    # leaves is at least (T+1)^2.
    for p, e in _trial_division(g, bound):
        if e == 1:
            return True
        g //= p**e
    return not (newton_iroot(g, 2)[1] or newton_iroot(g, 3)[1])


def trial_local_verdict(coeffs, budget):
    """`_local_verdict` by trial division of G' to floor(G'^(1/5))."""
    g, h0 = _local_gcd(coeffs)
    if g == 0:
        return Verdict.NO_CERTIFIED
    if g > 1:
        if h0 is not None:
            g = _strip_primes_of(g, h0 // g)
        once = trial_divides_once(g, budget)
        if once is None:
            return None
        if once:
            return Verdict.YES
    for p in _prime_divisors(len(coeffs) - 1):
        if _shift_at(coeffs, p) is not None:
            return Verdict.YES
    return Verdict.NO_CERTIFIED
