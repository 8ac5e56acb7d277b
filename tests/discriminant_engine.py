"""The discriminant engine, kept as an oracle for `shifted_eisenstein`.

This is the decision procedure the package used before the local criterion,
rebuilt on public functions only.  If f(x+s) is Eisenstein with respect to p
then p^(n-1) divides the discriminant D(f), which is shift-invariant; for
n >= 3 such a p also divides the next principal subresultant S_1 of
(f, f'), since f = a_n*(x-s)^n (mod p) makes gcd(f, f') mod p of degree
n-1 >= 2.  Candidate primes therefore come from factoring |D| (n = 2) or
gcd(|D|, |S_1|) (n >= 3), and the candidate shifts are the roots of f mod p.
It reaches the same verdicts and certificates as the local criterion by
unrelated algebra, which is what makes it a useful oracle.
"""

import math

from eisenshift import (
    DEFAULT_BUDGET,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    discriminant,
    eisenstein_primes,
    factorize,
    is_eisenstein_with,
    principal_subresultant,
    roots_mod_p,
    taylor_shift,
)
from eisenshift.intpoly import derivative


def discriminant_engine(f, budget=DEFAULT_BUDGET):
    """Shifted-Eisenstein decision by discriminant, subresultant and roots mod p."""
    witnesses = eisenstein_primes(f)
    if witnesses:
        return ShiftedDecision(Verdict.YES, ShiftCertificate(0, witnesses[0]))
    n = f.degree
    d = discriminant(f)
    if d == 0:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason="discriminant-zero")
    ad = abs(d)
    if n == 2:
        fact = factorize(ad, budget)
        candidates = [p for p, _ in fact.factors]
    else:
        s1 = principal_subresultant(f, derivative(f), 1)
        shared = math.gcd(ad, abs(s1))  # s1 == 0 degrades to |d| itself
        if shared == 1:
            return ShiftedDecision(Verdict.NO_CERTIFIED, reason="no-qualifying-prime")
        fact = factorize(shared, budget)
        candidates = [p for p, _ in fact.factors if ad % p ** (n - 1) == 0]
    for p in candidates:
        if f.leading % p == 0:
            continue
        for s in roots_mod_p(f, p):
            if is_eisenstein_with(taylor_shift(f, s), p):
                return ShiftedDecision(Verdict.YES, ShiftCertificate(s, p))
    reason = "no-qualifying-prime" if not candidates else "no-root-shift-works"
    if fact.certified:
        return ShiftedDecision(Verdict.NO_CERTIFIED, reason=reason)
    return ShiftedDecision(Verdict.NO_HEURISTIC, reason=reason, cofactor=fact.cofactor)
