"""Eisenstein and shifted-Eisenstein irreducibility decisions with certificates.

A polynomial f of degree n is Eisenstein with respect to a prime p when p
divides every non-leading coefficient, p^2 does not divide the constant term,
and p does not divide the leading coefficient.  f is shifted-Eisenstein when
f(x+s) is Eisenstein for some integer s; either way f is irreducible over Q.

The decision rests on the local criterion: f(x+s) is Eisenstein with respect
to p exactly when f = a_n*(x-s)^n (mod p), p does not divide a_n, and p^2
does not divide f(s).  Each candidate prime has one candidate shift: the
congruence fixes s modulo p (see `_shift_at`).  The candidate primes are the
primes dividing n and the prime factors of one integer computed from f.  Such
an f has f'(s) = 0 (mod p), so f(s + k*p) = f(s) (mod p^2): shifts repeat
with period p, and only 0 <= s < p needs checking.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .algebra import discriminant
from .errors import BudgetError, DomainError
from .intpoly import IntPoly, _taylor_shift, taylor_shift
from .primes import (
    DEFAULT_BUDGET,
    FactorBudget,
    Factorization,
    _budget_error,
    _prime_product,
    _trial_division,
    factorize,
    iroot,
    is_prime,
)

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
]

# Budget escalations that `decide_certified` makes before giving up.
CERTIFY_RETRIES = 8


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


def _witness_primes(coeffs: tuple[int, ...], budget: FactorBudget):
    """The primes f is Eisenstein with respect to, ascending, found lazily.

    f is given by its coefficients.  They are the primes p of
    g = gcd(a_0, ..., a_(n-1)) with p^2 not dividing a_0 and p not dividing
    a_n, in the order `_candidate_primes` finds them.
    BudgetError once the walk reaches a rho split of g that is not
    certified, before any prime of that split is tested.
    """
    if len(coeffs) < 2:
        raise DomainError("Eisenstein tests need degree >= 1")
    a0 = coeffs[0]
    if a0 == 0:
        return ()  # p^2 | 0 always, so condition (ii) can never hold
    g = math.gcd(*coeffs[:-1])
    if g == 1:
        return ()
    return _walk_witnesses(g, a0, coeffs[-1], budget)


def _walk_witnesses(g: int, a0: int, an: int, budget: FactorBudget):
    split: list[Factorization] = []
    for p in _candidate_primes(g, [], budget, split):
        if split and not split[0].certified:
            break
        if a0 % (p * p) and an % p:
            yield p
    if split and not split[0].certified:
        raise BudgetError("could not fully factor coefficient gcd %d" % g)


def eisenstein_primes(f: IntPoly, budget: FactorBudget = DEFAULT_BUDGET) -> list[int]:
    """All primes with respect to which f is Eisenstein, ascending."""
    if type(budget) is not FactorBudget:
        raise _budget_error("eisenstein_primes", budget)
    return list(_witness_primes(f.coeffs, budget))


def _smallest_witness(coeffs: tuple[int, ...]) -> int | None:
    """Smallest Eisenstein witness prime of f, given by its coefficients, or None.

    The walk stops at the first witness and always runs under
    DEFAULT_BUDGET, so the answer does not depend on a caller's budget.
    """
    for p in _witness_primes(coeffs, DEFAULT_BUDGET):
        return p
    return None


def is_eisenstein(f: IntPoly) -> bool:
    """True iff f is Eisenstein with respect to some prime."""
    return _smallest_witness(f.coeffs) is not None


def is_eisenstein_with(f: IntPoly, p: int) -> bool:
    """Check the three Eisenstein conditions for one specific prime p."""
    if not is_prime(p):  # DomainError from is_prime for a non-int p
        raise DomainError("is_eisenstein_with needs a prime, got %r" % (p,))
    return f.degree >= 1 and _eisenstein_at(f.coeffs, p)


def _eisenstein_at(coeffs: tuple[int, ...], p: int) -> bool:
    """The three Eisenstein conditions at the prime p, for degree >= 1."""
    if coeffs[0] % (p * p) == 0 or coeffs[-1] % p == 0:
        return False
    for c in coeffs[:-1]:
        if c % p:
            return False
    return True


def _strip_primes_of(g: int, u: int) -> int:
    """g > 0 with every prime factor of u removed, by repeated gcd (u is never factored)."""
    common = math.gcd(g, u)
    while common > 1:
        g //= common
        common = math.gcd(g, common)
    return g


def _local_gcd(coeffs: tuple[int, ...]) -> tuple[int, int | None]:
    """(G, h_0): G = gcd(h_0, ..., h_(n-2)) with the primes of u = n*a_n removed.

    For f of degree n >= 2.  h(y) = u^n * f((y - a_(n-1))/u) has integer
    coefficients, leading coefficient a_n and no y^(n-1) term; with
    t = -a_(n-1) they are

        h_j = sum over k >= j of C(k, j) * a_k * u^(n-k) * t^(k-j).

    For a prime p not dividing u, f = a_n*(x-s)^n (mod p) holds for some s
    exactly when p | gcd(h_0, ..., h_(n-2)).  G is 0 exactly when
    f = a_n*(x-r)^n over Q.

    The top one, h_(n-2), is u^2*a_(n-2) - (n-1)*u*a_(n-1)^2 + C(n, 2)*a_n*a_(n-1)^2
    = (u/2) * c with c = 2*n*a_n*a_(n-2) - (n-1)*a_(n-1)^2.  When u is odd,
    n is odd and c is even, so h_(n-2) = u * (c/2).  So c, halved when u is
    odd, has the valuation of h_(n-2) at every prime not dividing u, and it
    stands in for h_(n-2) in the gcd; at n = 2, c = -D is all there is.  The
    next one is h_(n-3) = a_n * d with
    d = 2*C(n, 3)*a_(n-1)^3 - (n-2)*n^2*a_n*a_(n-2)*a_(n-1) + n^3*a_n^2*a_(n-3),
    and d stands in for it the same way, as a_n divides u.  The primes of u
    are stripped from gcd(c, d) at once (from the rows' gcd when c = d = 0),
    and only a G that survives both gcds pays for the rest: h_(n-4), ..., h_0
    follow top-down, each by Horner's rule in t, and the walk stops as soon
    as the gcd reaches 1.  h_0 comes back only when G != 1 (at n = 3 it is
    a_n * d): the result is (1, None) whenever G = 1, and h_0 is None at n = 2.
    """
    n = len(coeffs) - 1
    an = coeffs[-1]
    u = n * an
    a1, a2 = coeffs[-2], coeffs[-3]
    square = a1 * a1
    c = 2 * u * a2 - (n - 1) * square
    if u & 1:
        c //= 2
    if n == 2:
        return (_strip_primes_of(abs(c), u) if c else 0), None
    d = (n * (n - 1) * (n - 2) // 3 * square - (n - 2) * n * u * a2) * a1
    d += n * u * u * coeffs[-4]
    g = math.gcd(c, d)
    if g > 1:
        g = _strip_primes_of(g, u)
    h = an * d
    if n > 3 and g != 1:
        scaled = []  # scaled[i] = a_(n-i) * u^i
        power = 1
        for a in reversed(coeffs):
            scaled.append(a * power)
            power *= u
        t = -a1
        for row in _binomial_rows(n):
            h = 0
            for b, w in zip(scaled, row):
                h = h * t + w * b
            g = math.gcd(g, h)
            if g == 1:
                break
        if g > 1 and not (c or d):
            # With c = d = 0 the rows alone made G, so u's primes are still in it.
            g = _strip_primes_of(g, u)
    return (1, None) if g == 1 else (g, h)


@functools.lru_cache(maxsize=64)
def _binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """(C(n, j), C(n-1, j), ..., C(j, j)) for j = n-4, ..., 0: the weights of
    the h_j that `_local_gcd` builds by Horner's rule, past its closed forms
    for h_(n-2) and h_(n-3)."""
    return tuple(
        tuple(math.comb(k, j) for k in range(n, j - 1, -1)) for j in range(n - 4, -1, -1)
    )


@functools.lru_cache(maxsize=64)
def _prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of a small m >= 1, ascending."""
    return tuple(p for p, _ in _trial_division(m, m))


def _shift_at(coeffs: tuple[int, ...], p: int) -> int | None:
    """The shift 0 <= s < p with f(x+s) Eisenstein at the prime p, or None.

    f is given by its coefficients.  At most one residue can work.  Let
    q = p^v with p^v exactly dividing n, and m = n/q.  As s^q = s (mod p), (x-s)^n = (x^q - s)^m (mod p), whose
    x^(n-q) coefficient is -m*s with p not dividing m.  So
    f = a_n*(x-s)^n (mod p) forces s = -a_(n-q) / (m*a_n) (mod p); for p not
    dividing n that is s = -a_(n-1) / (n*a_n).  That s is returned when p
    divides f(s) exactly once, which alone decides for a prime of
    `_local_gcd`'s G as the congruence holds there, and f(x+s) passes the
    full Eisenstein check.  f(s) comes from Horner's rule and the full check
    from `_eisenstein_at` on `_taylor_shift`'s coefficients of f(x+s), so
    the test builds no IntPoly.
    """
    n = len(coeffs) - 1
    an = coeffs[n]
    if an % p == 0:
        return None  # the leading coefficient is shift-invariant
    q = 1
    while n % (q * p) == 0:
        q *= p
    if q > 1:
        for j in range(1, n):
            if j % q and coeffs[j] % p:
                return None  # (x^q - s)^m has only powers of x^q
    s = (-coeffs[n - q] * pow(n // q * an, -1, p)) % p
    value = 0
    for c in reversed(coeffs):
        value = value * s + c
    r = value % (p * p)
    if r and r % p == 0 and _eisenstein_at(_taylor_shift(coeffs, s), p):
        return s
    return None


def _candidate_primes(
    target: int, small: list[int], budget: FactorBudget, split: list[Factorization]
):
    """The primes of `small` (ascending, consumed) merged by size with those of target > 1.

    Trial division hands out target's primes smallest first.  Only when it
    ends and leaves a rest does `factorize`, told that the walk is done,
    split that rest by rho; that Factorization is appended to `split`, and
    its primes all exceed the trial bound.
    """
    rest = target
    for p, e in _trial_division(target, budget.trial_bound):
        rest //= p**e
        while small and small[0] < p:
            yield small.pop(0)
        yield p
    if rest > 1:
        fact = factorize(rest, budget, trial_divided=True)
        split.append(fact)
        small = sorted(small + [p for p, _ in fact.factors])
    yield from small


def shifted_eisenstein(
    f: IntPoly, budget: FactorBudget = DEFAULT_BUDGET
) -> ShiftedDecision:
    """Decide whether f(x+s) is Eisenstein for some integer s.

    f(x+s) is Eisenstein with respect to p exactly when f = a_n*(x-s)^n
    (mod p), p does not divide a_n, and p^2 does not divide f(s).  A plain
    witness (shift 0) is looked for first.  Otherwise, for n >= 3, the
    candidate primes are the prime factors of G = gcd(h_0, ..., h_(n-2)) (see
    `_local_gcd`) and the primes dividing n but not a_n (each at most n).
    G = 0 means f = a_n*(x-r)^n, a certified NO.  For n = 2 the candidate
    primes are those of |D| with D = a_1^2 - 4*a_0*a_2.  Each candidate prime
    has one candidate shift, tested by `_shift_at`.

    Candidates are tried in ascending order as they are found: trial
    division hands out the prime factors smallest first, the primes of n are
    merged in by size, and the decision returns at the first prime that
    works.  Only when trial division to the trial bound B ends without a
    certificate does `factorize` split the rest; its primes all exceed B, so
    a piece below (B+1)^2 is prime untested and one below (B+1)^3 is split
    by a square root, a primality test and rho.

    YES answers always carry a verified certificate with 0 <= shift < prime,
    in canonical order: a shift-0 witness first, then the smallest prime,
    whose shift is its one candidate (f(x+1) may be Eisenstein at a prime
    below f's own witness); shifts repeat with period p, as f'(s) = 0
    (mod p).  The shift-0 step walks the coefficient gcd under DEFAULT_BUDGET
    whatever `budget` is, so a YES with shift 0 means exactly that f is
    Eisenstein.
    A NO is certified when the factorization is complete, or, for n >= 3,
    when the discriminant of f is 0; otherwise the verdict is heuristic and
    carries the unsplit cofactor.
    """
    if type(budget) is not FactorBudget:
        raise _budget_error("shifted_eisenstein", budget)
    n = f.degree
    if n < 2:
        raise DomainError("shifted_eisenstein needs degree >= 2")
    witness = _smallest_witness(f.coeffs)
    if witness is not None:
        return ShiftedDecision(Verdict.YES, ShiftCertificate(0, witness))
    return _certificate_search(f.coeffs, n, budget)


# The certified NO decisions, one per reason; they carry no certificate and
# no cofactor, and ShiftedDecision is frozen, so every decision shares them.
_CERTIFIED_NO = {
    reason: ShiftedDecision(Verdict.NO_CERTIFIED, reason=reason)
    for reason in ("discriminant-zero", "no-qualifying-prime", "no-root-shift-works")
}


def _certificate_search(
    coeffs: tuple[int, ...], n: int, budget: FactorBudget
) -> ShiftedDecision:
    """`shifted_eisenstein` for the coefficients of f of degree n after its
    plain-witness step found no witness."""
    an = coeffs[n]
    if n == 2:
        # Every prime that can work divides D, 2 included.
        a0, a1, _ = coeffs
        target = abs(a1 * a1 - 4 * a0 * an)
        small = []
    else:
        target = _local_gcd(coeffs)[0]
        small = [p for p in _prime_divisors(n) if an % p]
    if target == 0:
        return _CERTIFIED_NO["discriminant-zero"]
    split: list[Factorization] = []
    reason = "no-qualifying-prime"
    candidates = small
    if target > 1:
        candidates = _candidate_primes(target, small, budget, split)
    for p in candidates:
        reason = "no-root-shift-works"
        s = _shift_at(coeffs, p)
        if s is not None:
            return ShiftedDecision(Verdict.YES, ShiftCertificate(s, p))
    if not split or split[0].certified:
        return _CERTIFIED_NO[reason]
    if n > 2 and discriminant(IntPoly(coeffs)) == 0:
        # A repeated root makes f reducible, so no shift can work.
        return _CERTIFIED_NO["discriminant-zero"]
    return ShiftedDecision(Verdict.NO_HEURISTIC, reason=reason, cofactor=split[0].cofactor)


def _shifted_verdict(coeffs: tuple[int, ...], budget: FactorBudget) -> tuple[Verdict, bool]:
    """The shifted verdict for f under `budget` and whether f is Eisenstein.

    f is given by its coefficients, of degree n >= 2.  The plain-witness walk
    runs once, then `_local_verdict`, then, past its trial bound, the search
    of `shifted_eisenstein(f, budget)`.  So the verdict is certified wherever
    the search's is, and equal to it there.
    """
    if _smallest_witness(coeffs) is not None:
        return Verdict.YES, True
    verdict = _local_verdict(coeffs, budget)
    if verdict is None:
        verdict = _certificate_search(coeffs, len(coeffs) - 1, budget).verdict
    return verdict, False


def _local_verdict(coeffs: tuple[int, ...], budget: FactorBudget) -> Verdict | None:
    """Certified verdict for f of degree n >= 2 without a plain witness, or None.

    A prime p not dividing u = n*a_n qualifies exactly when p | G (see
    `_local_gcd`) and p divides h_0 = u^n * f(t/u), t = -a_(n-1), once: its
    shift s = t/u (mod p) has f'(s) = 0 (mod p), so f(s) = f(t/u) (mod p^2).
    G divides h_0, so these are the primes dividing once the G' left by
    stripping from G the primes of h_0/G (all of them when h_0 = 0).  At
    n = 2, h_0 = -a_2*D, so G' = G with no strip.  For a bound b from
    T = floor(G'^(1/5)) to the trial bound B, P = gcd(G', product of the
    primes up to b) differs from gcd(G'/P, P) exactly when one of them
    divides G' once.  The rest w has primes above T and w < (T+1)^5, so at
    most four prime factors, none of them once exactly when w is a square or
    a cube (1, p^2, p^3, p^4, p^2*q^2).  Only then are the primes of n tested,
    by `_shift_at`.  G = 0 is a certified NO.  None when G' >= (B+1)^5 (T > B)
    or `_prime_product(b)` is None, past the prime table's cap.
    """
    g, h0 = _local_gcd(coeffs)
    if g == 0:
        return Verdict.NO_CERTIFIED
    if g > 1:
        if h0 is not None:
            g = _strip_primes_of(g, h0 // g)
        bound = min(1 << -(-g.bit_length() // 5), budget.trial_bound)
        if g >= (budget.trial_bound + 1) ** 5 or (product := _prime_product(bound)) is None:
            return None
        small = math.gcd(g, product)
        if math.gcd(g // small, small) != small:
            return Verdict.YES
        g = _strip_primes_of(g, small)
        if not (iroot(g, 2)[1] or iroot(g, 3)[1]):
            return Verdict.YES
    for p in _prime_divisors(len(coeffs) - 1):
        if _shift_at(coeffs, p) is not None:
            return Verdict.YES
    return Verdict.NO_CERTIFIED


def decide_certified(
    f: IntPoly, budget: FactorBudget = DEFAULT_BUDGET, decide=None
) -> ShiftedDecision:
    """Shifted-Eisenstein decision, escalating the budget until it is certified.

    A heuristic NO is decided again with the budget scaled by 4, 16, 64, ...,
    at most CERTIFY_RETRIES times (the module constant, read at each call);
    BudgetError if the last decision is still heuristic, or at once if the
    budget cannot grow (both bounds 0).  `decide` is the
    decision that is repeated, by default `shifted_eisenstein`; a caller may
    pass its own binding of that name so that wrappers installed in its
    namespace (bench/spans.py) see every attempt.
    """
    decide = decide or shifted_eisenstein
    decision = decide(f, budget)
    step = 0
    while decision.verdict is Verdict.NO_HEURISTIC:
        if budget.scaled(4) == budget:
            raise BudgetError(
                "could not certify the decision for %s: the budget %r cannot grow" % (f, budget)
            )
        if step == CERTIFY_RETRIES:
            raise BudgetError(
                "could not certify the decision for %s after %d budget escalations"
                % (f, CERTIFY_RETRIES)
            )
        step += 1
        decision = decide(f, budget.scaled(4**step))
    return decision


def verify_certificate(f: IntPoly, certificate: ShiftCertificate) -> bool:
    """Recheck a certificate from scratch; False on a malformed certificate.

    A certificate or polynomial object without the expected attributes counts
    as malformed; any other error propagates.
    """
    try:
        s = certificate.shift
        p = certificate.prime
        if type(s) is not int or type(p) is not int:
            return False  # bools included, as IntPoly rejects them
        if not 0 <= s < p:
            return False
        if not is_prime(p):
            return False
        shifted = taylor_shift(f, s)
        return shifted.degree >= 1 and _eisenstein_at(shifted.coeffs, p)
    except AttributeError:
        return False
