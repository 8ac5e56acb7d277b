"""Eisenstein and shifted-Eisenstein irreducibility decisions with certificates.

A polynomial f of degree n is Eisenstein with respect to a prime p when p
divides every non-leading coefficient, p^2 does not divide the constant term,
and p does not divide the leading coefficient.  f is shifted-Eisenstein when
f(x+s) is Eisenstein for some integer s; either way f is irreducible over Q.

The decision rests on the local criterion: f(x+s) is Eisenstein with respect
to p exactly when f = a_n*(x-s)^n (mod p), p does not divide a_n, and p^2
does not divide f(s).  For p not dividing n*a_n the x^(n-1) coefficient fixes
s modulo p, and the primes for which the congruence holds are the prime
factors of one integer computed from f; the primes dividing n are tried with
every residue.  Such an f has f'(s) = 0 (mod p), so f(s + k*p) = f(s)
(mod p^2): shifts repeat with period p, and only 0 <= s < p needs checking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .algebra import discriminant, max_shift_bound
from .errors import BudgetError, DomainError
from .intpoly import IntPoly, evaluate, taylor_shift
from .primes import DEFAULT_BUDGET, FactorBudget, factorize, is_prime

# Unused here; bench/spans.py looks these names up in this module to trace
# calls of the former discriminant engine.
from .algebra import principal_subresultant  # noqa: F401
from .intpoly import derivative  # noqa: F401
from .primes import roots_mod_p  # noqa: F401

__all__ = [
    "Verdict",
    "ShiftCertificate",
    "ShiftedDecision",
    "eisenstein_primes",
    "is_eisenstein",
    "is_eisenstein_with",
    "shifted_eisenstein",
    "CERTIFY_RETRIES",
    "decide_certified",
    "verify_certificate",
    "naive_shift_scan",
    "periodicity_check",
]

# Budget escalations that `decide_certified` makes before giving up.
CERTIFY_RETRIES = 8

# Inline trial division handles coefficient gcds up to this divisor bound;
# anything rougher goes through the budgeted factorizer.
_WITNESS_TRIAL_LIMIT = 1_000_000


class Verdict(enum.Enum):
    YES = "yes"
    NO_CERTIFIED = "no-certified"
    NO_HEURISTIC = "no-heuristic"


@dataclass(frozen=True)
class ShiftCertificate:
    """Checkable witness: f(x+shift) is Eisenstein with respect to prime."""

    shift: int
    prime: int


@dataclass(frozen=True)
class ShiftedDecision:
    """Outcome of a shifted-Eisenstein decision.

    `reason` explains a NO: "discriminant-zero" when f has a repeated root
    found as such (for n = 2 when D = 0; for n >= 3 when f = a_n*(x-r)^n, or
    when an unsplit factorization falls back on the discriminant),
    "no-qualifying-prime" when no candidate prime is left, and
    "no-root-shift-works" when candidates were tried and none worked.  For
    n >= 3 other repeated-root inputs get one of the last two.  `cofactor`
    carries the unsplit composite part of the factorization behind a
    heuristic NO.
    """

    verdict: Verdict
    certificate: ShiftCertificate | None = None
    reason: str | None = None
    cofactor: int | None = None


def _prime_factors_ascending(g: int, budget: FactorBudget):
    """Distinct prime factors of g >= 2 in ascending order."""
    fact = factorize(g, budget)
    if not fact.certified:
        raise BudgetError("could not fully factor coefficient gcd %d" % g)
    return [p for p, _ in fact.factors]


def _coefficient_gcd(f: IntPoly) -> int:
    g = 0
    for c in f.coeffs[:-1]:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def eisenstein_primes(f: IntPoly, budget: FactorBudget = DEFAULT_BUDGET) -> list[int]:
    """All primes with respect to which f is Eisenstein, ascending."""
    if f.degree < 1:
        raise DomainError("eisenstein_primes needs degree >= 1")
    a0 = f.coeffs[0]
    an = f.leading
    if a0 == 0:
        return []  # p^2 | 0 always, so condition (ii) can never hold
    g = _coefficient_gcd(f)
    if g == 1:
        return []
    out = []
    for p in _prime_factors_ascending(g, budget):
        if a0 % (p * p) != 0 and an % p != 0:
            out.append(p)
    return out


def _smallest_witness(f: IntPoly) -> int | None:
    """Smallest Eisenstein witness prime of f, or None; early-exit search."""
    if f.degree < 1:
        raise DomainError("is_eisenstein needs degree >= 1")
    a0 = f.coeffs[0]
    if a0 == 0:
        return None
    g = _coefficient_gcd(f)
    if g == 1:
        return None
    an = f.leading
    m = g
    d = 2
    while d * d <= m and d <= _WITNESS_TRIAL_LIMIT:
        if m % d == 0:
            if a0 % (d * d) != 0 and an % d != 0:
                return d
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m == 1:
        return None
    if d * d > m:  # remainder is prime
        if a0 % (m * m) != 0 and an % m != 0:
            return m
        return None
    # Coefficient gcd too rough for inline trial division.
    for p in _prime_factors_ascending(m, DEFAULT_BUDGET):
        if a0 % (p * p) != 0 and an % p != 0:
            return p
    return None


def is_eisenstein(f: IntPoly) -> bool:
    """True iff f is Eisenstein with respect to some prime."""
    return _smallest_witness(f) is not None


def is_eisenstein_with(f: IntPoly, p: int) -> bool:
    """Check the three Eisenstein conditions for one specific prime p."""
    if p < 2 or not is_prime(p):
        raise DomainError("is_eisenstein_with needs a prime, got %r" % (p,))
    if f.degree < 1:
        return False
    a0 = f.coeffs[0]
    if a0 % (p * p) == 0:
        return False
    if f.leading % p == 0:
        return False
    for c in f.coeffs[:-1]:
        if c % p != 0:
            return False
    return True


def _strip_primes_of(g: int, u: int) -> int:
    """g > 0 with every prime factor of u removed, by repeated gcd (u is never factored)."""
    common = math.gcd(g, u)
    while common > 1:
        g //= common
        common = math.gcd(g, common)
    return g


def _local_gcd(f: IntPoly) -> int:
    """G = gcd(h_0, ..., h_(n-2)) with the primes of u = n*a_n removed.

    h(y) = u^n * f((y - a_(n-1))/u) has integer coefficients, leading
    coefficient a_n and no y^(n-1) term: coefficient k of f is scaled by
    u^(n-k), then the result is shifted by -a_(n-1).  For a prime p not
    dividing u, f = a_n*(x-s)^n (mod p) holds for some s exactly when
    p | gcd(h_0, ..., h_(n-2)).  That gcd is 0 exactly when
    f = a_n*(x-r)^n over Q; then 0 is returned.
    """
    n = f.degree
    u = n * f.leading
    power = 1
    scaled = []
    for c in reversed(f.coeffs):
        scaled.append(c * power)
        power *= u
    h = taylor_shift(IntPoly(tuple(reversed(scaled))), -f.coeffs[-2]).coeffs
    g = 0
    for c in h[: n - 1]:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return _strip_primes_of(g, u) if g else 0


def _prime_divisors(m: int) -> list[int]:
    """Distinct prime factors of a small m >= 1 by trial division, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _candidate_shifts(f: IntPoly, p: int):
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


def shifted_eisenstein(
    f: IntPoly, budget: FactorBudget = DEFAULT_BUDGET
) -> ShiftedDecision:
    """Decide whether f(x+s) is Eisenstein for some integer s.

    f(x+s) is Eisenstein with respect to p exactly when f = a_n*(x-s)^n
    (mod p), p does not divide a_n, and p^2 does not divide f(s).  A plain
    witness (shift 0) is looked for first.  Otherwise, for n >= 3, the
    candidate primes not dividing u = n*a_n are the prime factors of
    G = gcd(h_0, ..., h_(n-2)) (see `_local_gcd`), each with the single shift
    s = -a_(n-1)/u (mod p); the primes dividing n but not a_n (each at most n)
    are candidates too, with every shift s < p.  G = 0 means f = a_n*(x-r)^n,
    a certified NO.  For n = 2, G is a_2*|D| with D = a_1^2 - 4*a_0*a_2, and
    |D| itself is factored.

    YES answers always carry a verified certificate with 0 <= shift < prime
    (smallest prime, then smallest shift); shifts repeat with period p, as
    f'(s) = 0 (mod p).  A NO is certified when the factorization is
    complete, or, for n >= 3, when the discriminant of f is 0; otherwise the
    verdict is heuristic and carries the unsplit cofactor.
    """
    n = f.degree
    if n < 2:
        raise DomainError("shifted_eisenstein needs degree >= 2")
    witness = _smallest_witness(f)
    if witness is not None:
        return ShiftedDecision(Verdict.YES, ShiftCertificate(0, witness))
    an = f.leading
    if n == 2:
        # Every prime that can work divides D, 2 included.
        a0, a1, _ = f.coeffs
        target = abs(a1 * a1 - 4 * a0 * an)
        primes = []
    else:
        target = _local_gcd(f)
        primes = [p for p in _prime_divisors(n) if an % p]
    if target == 0:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason="discriminant-zero")
    certified = True
    cofactor = 1
    if target > 1:
        fact = factorize(target, budget)
        certified = fact.certified
        cofactor = fact.cofactor
        primes = sorted(primes + [p for p, _ in fact.factors])
    for p in primes:
        for s in _candidate_shifts(f, p):
            if is_eisenstein_with(taylor_shift(f, s), p):
                return ShiftedDecision(Verdict.YES, ShiftCertificate(s, p))
    reason = "no-root-shift-works" if primes else "no-qualifying-prime"
    if certified:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason=reason)
    if n > 2 and discriminant(f) == 0:
        # A repeated root makes f reducible, so no shift can work.
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason="discriminant-zero")
    return ShiftedDecision(Verdict.NO_HEURISTIC, reason=reason, cofactor=cofactor)


def decide_certified(
    f: IntPoly,
    budget: FactorBudget = DEFAULT_BUDGET,
    retries: int = CERTIFY_RETRIES,
    decide=None,
) -> ShiftedDecision:
    """Shifted-Eisenstein decision, escalating the budget until it is certified.

    A heuristic NO is decided again with the budget scaled by 4, 16, 64, ...,
    at most `retries` times; BudgetError if the last decision is still
    heuristic.  `decide` is the decision that is repeated, by default
    `shifted_eisenstein`; a caller may pass its own binding of that name so
    that wrappers installed in its namespace (bench/spans.py) see every
    attempt.
    """
    decide = decide or shifted_eisenstein
    decision = decide(f, budget)
    step = 0
    while decision.verdict is Verdict.NO_HEURISTIC:
        if step == retries:
            raise BudgetError(
                "could not certify the decision for %s after %d budget escalations"
                % (f, retries)
            )
        step += 1
        decision = decide(f, budget.scaled(4**step))
    return decision


def verify_certificate(f: IntPoly, certificate: ShiftCertificate) -> bool:
    """Recheck a certificate from scratch; False on any malformed input."""
    try:
        s = certificate.shift
        p = certificate.prime
        if not isinstance(s, int) or not isinstance(p, int):
            return False
        if not 0 <= s < p:
            return False
        if not is_prime(p):
            return False
        return is_eisenstein_with(taylor_shift(f, s), p)
    except Exception:
        return False


def naive_shift_scan(f: IntPoly, scan_cap: int = 1_000_000) -> ShiftedDecision:
    """Decide by trying every shift 0 <= s <= max_shift_bound(f) directly.

    Independent of the local criterion, hence useful as an oracle.
    Refuses (BudgetError) when the scan bound exceeds scan_cap.  The first
    working shift is returned; by shift periodicity it satisfies s < p for
    its smallest witness prime, so the certificate is already canonical.
    """
    n = f.degree
    if n < 2:
        raise DomainError("naive_shift_scan needs degree >= 2")
    bound = max_shift_bound(f)
    if bound > scan_cap:
        raise BudgetError("scan bound %d exceeds cap %d" % (bound, scan_cap))
    g = f
    for s in range(bound + 1):
        witness = _smallest_witness(g)
        if witness is not None:
            return ShiftedDecision(Verdict.YES, ShiftCertificate(s % witness, witness))
        g = taylor_shift(g, 1)
    return ShiftedDecision(Verdict.NO_CERTIFIED, reason="no-root-shift-works")


def periodicity_check(f: IntPoly, s: int, p: int, k: int) -> bool:
    """True when f(x + s + k*p) is Eisenstein with respect to p."""
    return is_eisenstein_with(taylor_shift(f, s + k * p), p)