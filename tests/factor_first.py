"""The factor-first pieces of the package, kept as oracles.

Before trial division fed the decision engine lazily, `factorize` tried
every prime up to the trial bound in turn, until p^2 exceeded what was
left, and sent the rest through perfect powers and rho; the engine factored
its whole target that way and only then tested the sorted candidate primes.
`trial_factorize` and `factor_first_engine` are those two procedures, and
`factor_first_witnesses` is the plain-witness step done the same way: factor
the coefficient gcd completely, then test its primes in ascending order.
`taylor_local_gcd` computes the engine's local gcd by building h with a
Taylor shift, and `factor_first_engine` tests every shift of `candidate_shifts`
with the full Eisenstein criterion.  `candidate_shifts` is the engine's former
rule: one residue for a prime p not dividing n, and every s < p with p
exactly dividing f(s) for a prime p dividing n.  They share the prime sieve,
`is_prime` and the rho helpers with the package, so they check the blocked
walk, the cached block products, the early exits, the closed-form local gcd,
the engine's one shift per prime and the order in which candidates are tried.
`evaluate` is f(x) by Horner's rule, for the tests' checks of shifts.
"""

import math

from eisenshift import (
    DEFAULT_BUDGET,
    BudgetError,
    DomainError,
    Factorization,
    IntPoly,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    discriminant,
    is_eisenstein_with,
    is_prime,
    sieve_primes,
    taylor_shift,
)
from eisenshift.eisenstein import _prime_divisors, _strip_primes_of
from eisenshift.primes import _brent_rho, _perfect_power


def evaluate(f, x):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


_SIEVED_TO = 2_000_000
_SIEVED = sieve_primes(_SIEVED_TO)


def _primes_up_to(bound):
    for p in _SIEVED:
        if p > bound:
            return
        yield p
    for cand in range(_SIEVED_TO + 1, bound + 1, 2):
        if is_prime(cand):
            yield cand


def trial_factorize(n, budget=DEFAULT_BUDGET):
    """Factor |n| under `budget` the way the package did before block trial division."""
    if n == 0:
        raise DomainError("cannot factor 0")
    m = abs(n)
    found = {}
    if m == 1:
        return Factorization((), 1)
    for p in _primes_up_to(budget.trial_bound):
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
        if m == 1:
            break
    cofactor = 1
    if m > 1:
        pending = [(m, 1)]
        rho_left = [budget.rho_iterations]
        while pending:
            value, mult = pending.pop()
            if value == 1:
                continue
            if is_prime(value):
                found[value] = found.get(value, 0) + mult
                continue
            power = _perfect_power(value, 0)
            if power is not None:
                base, k = power
                pending.append((base, mult * k))
                continue
            divisor = _brent_rho(value, rho_left)
            if divisor is None:
                cofactor *= value**mult
                continue
            pending.append((divisor, mult))
            pending.append((value // divisor, mult))
    return Factorization(tuple(sorted(found.items())), cofactor)


def factor_first_witnesses(f, budget=DEFAULT_BUDGET):
    """The primes f is Eisenstein at, ascending, from a complete factorization of the gcd."""
    if f.coeffs[0] == 0:
        return []
    fact = trial_factorize(math.gcd(*f.coeffs[:-1]), budget)
    if not fact.certified:
        raise BudgetError("could not fully factor the coefficient gcd of %s" % (f,))
    return [p for p, _ in fact.factors if is_eisenstein_with(f, p)]


def taylor_h(f):
    """The coefficients h_0, ..., h_n of h(y) = u^n * f((y - a_(n-1))/u), u = n*a_n.

    Coefficient k of f is scaled by u^(n-k), then the result is shifted by
    -a_(n-1).
    """
    u = f.degree * f.leading
    power = 1
    scaled = []
    for c in reversed(f.coeffs):
        scaled.append(c * power)
        power *= u
    return taylor_shift(IntPoly(tuple(reversed(scaled))), -f.coeffs[-2]).coeffs


def taylor_local_gcd(f):
    """G of `_local_gcd`: gcd(h_0, ..., h_(n-2)) of `taylor_h`, with the primes
    of u = n*a_n removed."""
    n = f.degree
    g = math.gcd(*taylor_h(f)[: n - 1])
    return _strip_primes_of(g, n * f.leading) if g else 0


def candidate_shifts(f, p):
    """Residues s in [0, p) for which f(x+s) can be Eisenstein with respect to p."""
    n = f.degree
    an = f.leading
    if an % p == 0:
        return ()  # the leading coefficient is shift-invariant
    if n % p:
        # f = a_n*(x-s)^n (mod p) fixes s through the x^(n-1) coefficient.
        return ((-f.coeffs[-2] * pow(n * an, -1, p)) % p,)
    # The constant term of f(x+s) is f(s), which p must divide exactly once.
    shifts = []
    for s in range(p):
        r = evaluate(f, s) % (p * p)
        if r and r % p == 0:
            shifts.append(s)
    return shifts


def factor_first_engine(f, budget=DEFAULT_BUDGET):
    """Shifted-Eisenstein decision that factors its target before testing any prime."""
    n = f.degree
    # The plain-witness step runs under the default budget, whatever `budget` is.
    witnesses = factor_first_witnesses(f)
    if witnesses:
        return ShiftedDecision(Verdict.YES, ShiftCertificate(0, witnesses[0]))
    an = f.leading
    if n == 2:
        a0, a1, _ = f.coeffs
        target = abs(a1 * a1 - 4 * a0 * an)
        primes = []
    else:
        target = taylor_local_gcd(f)
        primes = [p for p in _prime_divisors(n) if an % p]
    if target == 0:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason="discriminant-zero")
    certified = True
    cofactor = 1
    if target > 1:
        fact = trial_factorize(target, budget)
        certified = fact.certified
        cofactor = fact.cofactor
        primes = sorted(primes + [p for p, _ in fact.factors])
    for p in primes:
        for s in candidate_shifts(f, p):
            if is_eisenstein_with(taylor_shift(f, s), p):
                return ShiftedDecision(Verdict.YES, ShiftCertificate(s, p))
    reason = "no-root-shift-works" if primes else "no-qualifying-prime"
    if certified:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason=reason)
    if n > 2 and discriminant(f) == 0:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason="discriminant-zero")
    return ShiftedDecision(Verdict.NO_HEURISTIC, reason=reason, cofactor=cofactor)
