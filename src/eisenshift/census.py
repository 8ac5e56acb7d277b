"""Exact censuses and Monte Carlo experiments over height-bounded boxes.

The sample space for degree n and height H is the box of integer coefficient
vectors (a_0, ..., a_n) with |a_i| <= H and a_n != 0.  Reports count three
nested classes: Eisenstein polynomials, shifted-Eisenstein polynomials, and
Eisenstein polynomials that stay Eisenstein after the shift x -> x+1.

A census counts.  It fixes (a_1, ..., a_n) with a_n > 0 and counts each
class over the column a_0 in [-H, H] as a union of residue classes of a_0;
f -> -f keeps all three classes, so the counts are doubled.  With u = n*a_n
and t = -a_(n-1), the coefficients h_j of h(y) = u^n * f((y + t)/u) are
those of sum_k a_k*u^(n-k)*(x + t)^k, so h_1, ..., h_(n-2) do not involve
a_0 and h_0 = h_0' + u^n*a_0.  Per column:

- Eisenstein at p: p divides g = gcd(a_1, ..., a_(n-1)), p does not divide
  a_n, and a_0 = 0 (mod p) but not (mod p^2).
- Shifted at p: by the local criterion, f(x+s) is Eisenstein at p exactly
  when f = a_n*(x-s)^n (mod p), p does not divide a_n, and p^2 does not
  divide f(s).  For p not dividing u, the congruence holds exactly when p
  divides h_0, ..., h_(n-2), and then p^2 divides f(s) exactly when it
  divides h_0 (see `eisenstein._local_verdict`).  So p divides
  G_1 = gcd(h_1, ..., h_(n-2)) stripped of u's primes, and
  a_0 = -h_0'/u^n (mod p) but not (mod p^2).  For p dividing n but not a_n,
  f(x+s) depends on a_0 only modulo p^2, and s only modulo p, so
  `eisenstein._shift_at` decides one a_0 of each class mod p^2.  A prime
  dividing a_n never works, and plain witnesses are the shift s = 0.
- f: the coefficients b_1, ..., b_(n-1) of f(x+1) do not involve a_0, and
  b_0 = f(1) = a_0 + sigma with sigma = a_1 + ... + a_n.  So f(x+1) is
  Eisenstein at q exactly when q divides gcd(b_1, ..., b_(n-1)), q does not
  divide a_n, and a_0 = -sigma (mod q) but not (mod q^2); the column counts
  the a_0 for which both f and f(x+1) are Eisenstein.

At n >= 3, a column with G_1 = 0, where f - a_0 = a_n*((x - r)^n - (-r)^n) for
r = t/u and h_0 alone decides for every prime not dividing u, is decided one
polynomial at a time by Monte Carlo's verdict rule under DEFAULT_BUDGET.
Its G' <= |h_0| <= H^(n+1)*(n^(n+1) - 1)/(n - 1) < 2*10^19 on every box the
cap admits, below the (B+1)^5 > 10^25 where the rule gives up, so a census
of degree n >= 3 always answers and ignores its budget.  These
columns include every one with g = 0 and every one with
b_1 = ... = b_(n-1) = 0, so the census counts only where g and
gcd(b_1, ..., b_(n-1)) are nonzero.  g <= H, |b_j| < 2^(n+1)*H, and G_1
divides c = 2n*a_n*a_(n-2) - (n-1)*a_(n-1)^2 when c != 0, so trial division
factors all three.

At n = 2 there is no h_1, ..., h_(n-2): G_1 is the empty gcd, 0, and the
shifted class is counted from D = a_1^2 - 4*a_0*a_2 instead, as
h_0 = -a_2*D and u = 2*a_2.  A prime p not dividing u qualifies exactly when
p divides D once.  |D| <= 5H^2 <= Y^3 for Y = ceil((5H^2)^(1/3)).  For each
odd p <= Y not dividing a_2, that is a_0 = a_1^2 * (4*a_2)^(-1) (mod p) but
not (mod p^2); p = 2 is the shift test of the primes of n.  For each a_0 not
found so far, the rest w of |D| without the primes up to Y and those of u
has primes above Y only and w <= Y^3, so w is 1, p, p^2 or p*q, and a prime
divides D once exactly when w > 1 is not a square; D = 0 is a NO.  The
columns with a_1 = 0 (g = 0) are decided one polynomial at a time by the
verdict rule, whose G' <= |D| <= 5H^2 there.  Where b_1 = a_1 + 2*a_2 = 0,
f(x+1) = b_0 + a_2*x^2 takes the plain test for each Eisenstein a_0.

That count is the report a certified decision per polynomial gives when no
decision can escalate: with (B+1)^2 > 5H^2 for the trial bound B, trial
division to B leaves a prime rest of every |D|.  `exact_census` counts a
degree-2 box exactly then, which the default budget meets on every box the
cap admits (H <= 231, 5H^2 < (10^5 + 1)^2).  Under a smaller trial bound it
gives each polynomial one shifted decision with `decide_certified`, which
escalates the budget until the decision is certified; its plain-witness step
runs first and under a fixed budget, so the Eisenstein column does not
depend on the budget.

Monte Carlo counts verdicts only, on coefficient tuples, by one rule for
every degree (README, "Counting verdicts"): a prime p not dividing
u = n*a_n qualifies when it divides once the local gcd G stripped of the
primes of h_0/G, h_0 = u^n * f(-a_(n-1)/u); for n = 2, h_0 = -a_2*D shares
G's valuations and nothing is stripped.  Past the rule's trial bound, the
certificate search of `shifted_eisenstein` decides.  f is Eisenstein when
some prime divides once g_2: g without the primes of a_n, then without
those of a_0 over what is left; the same test on f(x+1) gives the f column.

Monte Carlo runs are deterministic for a given seed and independent of the
worker count: samples come in chunks of CHUNK_SIZE, each from its own
substream seeded by (seed, chunk index), and a process counts a run of them.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import struct
from collections import namedtuple
from itertools import chain, islice, product

from .eisenstein import (
    Verdict,
    _is_plain,
    _prime_divisors,
    _shift_at,
    _shifted_verdict,
    _strip_primes_of,
    decide_certified,
    is_eisenstein,  # noqa: F401  unused, as is taylor_shift; bench/spans.py traces both here
    shifted_eisenstein,
)
from .errors import BudgetError, DomainError
from .intpoly import IntPoly, _taylor_shift, taylor_shift  # noqa: F401
from .primes import DEFAULT_BUDGET, FactorBudget, _budget_error, _primes_up_to, iroot

__all__ = [
    "DEFAULT_SEED",
    "ExperimentReport",
    "CSV_COLUMNS",
    "wilson_interval",
    "exact_census",
    "monte_carlo",
    "reports_to_csv",
]

CSV_COLUMNS = (
    "kind",
    "n",
    "H",
    "samples",
    "eisenstein",
    "shifted",
    "f_count",
    "ratio",
    "ci_low",
    "ci_high",
    "seed",
    "unresolved",
)

DEFAULT_SEED = 0x5EED
CHUNK_SIZE = 256
_ENUMERATION_CAP = 100_000_000  # exact_census refuses larger boxes


class ExperimentReport(
    namedtuple(
        "ExperimentReport",
        "kind n height samples eisenstein shifted f_count unresolved seed",
    )
):
    """Counts from one census or Monte Carlo run.

    `samples` is the box size for a census and the sample count for a
    simulation; `unresolved` counts heuristic (uncertified) negatives, always
    0 for a census, and `seed` is None for a census.  The rest follows from
    the counts: `ratio` is shifted/eisenstein, and `ci_low`, `ci_high` its
    95% interval from the Wilson interval of the eisenstein share of the
    shifted samples of a Monte Carlo run.  All three are None when eisenstein
    is 0, and the interval for a census.
    """

    __slots__ = ()

    @property
    def ratio(self) -> float | None:
        return self.shifted / self.eisenstein if self.eisenstein else None

    @property
    def ci_low(self) -> float | None:
        return self._ratio_bound(upper=False)

    @property
    def ci_high(self) -> float | None:
        return self._ratio_bound(upper=True)

    def _ratio_bound(self, upper: bool) -> float | None:
        """1 over the opposite Wilson bound of the eisenstein share of the shifted
        samples: E ~ Binomial(S, pi) given S of them, so it is valid given S and always."""
        if self.seed is None or not self.eisenstein:
            return None
        return 1 / wilson_interval(self.eisenstein, self.shifted)[not upper]

    def as_record(self) -> dict:
        """The report keyed by CSV_COLUMNS, in that order (`height` is "H")."""
        return {c: getattr(self, "height" if c == "H" else c) for c in CSV_COLUMNS}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if type(successes) is not int or type(trials) is not int:
        raise DomainError("wilson_interval needs ints, got %r and %r" % (successes, trials))
    if trials <= 0 or not 0 <= successes <= trials:
        raise DomainError("wilson_interval needs 0 <= successes <= trials, trials > 0")
    z = 1.96  # the normal quantile of a 95% interval
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _check_box(caller: str, n: int, height: int, **more: int) -> None:
    """DomainError unless n >= 2, height >= 1 and they and `more` are ints (not bools)."""
    for name, value in (("degree", n), ("height", height), *more.items()):
        if type(value) is not int:
            raise DomainError("%s needs an int %s, got %r" % (caller, name, value))
    if n < 2:
        raise DomainError("%s needs degree >= 2" % caller)
    if height < 1:
        raise DomainError("%s needs height >= 1" % caller)


def _count(polys, decide, budget: FactorBudget) -> tuple[int, int, int, int]:
    """Counts (eisenstein, shifted, f, unresolved) from one decision per polynomial.

    `polys` holds coefficient tuples, and `decide(coeffs, budget)` gives the
    verdict and whether f is Eisenstein.  A YES counts as shifted, and also
    as Eisenstein when f is; only then is f(x+1) tested for the f column,
    by the same plain test.
    """
    eis = shifted = f_count = unresolved = 0
    for coeffs in polys:
        verdict, plain = decide(coeffs, budget)
        if verdict is Verdict.YES:
            shifted += 1
            if plain:
                eis += 1
                f_count += _is_plain(_taylor_shift(coeffs, 1))
        elif verdict is Verdict.NO_HEURISTIC:
            unresolved += 1
    return eis, shifted, f_count, unresolved


def _certified_verdict(coeffs: tuple[int, ...], budget: FactorBudget) -> tuple[Verdict, bool]:
    """`_count`'s `decide` for a census that may escalate: one IntPoly per
    polynomial and its certified decision, whose shift-0 certificate says
    that f is Eisenstein."""
    # This module's binding of shifted_eisenstein, so wrappers installed on
    # it see every escalated attempt.
    decision = decide_certified(IntPoly(coeffs), budget, decide=shifted_eisenstein)
    certificate = decision.certificate
    return decision.verdict, certificate is not None and certificate.shift == 0


def exact_census(n: int, height: int, budget: FactorBudget = DEFAULT_BUDGET) -> ExperimentReport:
    """Exact counts over the whole box; a box of more than 10^8 polynomials
    is refused with BudgetError.

    The census counts residue classes of a_0 (see the module docstring), with
    verdicts only in the columns it leaves over, and ignores `budget`, except
    at degree 2 with (B+1)^2 <= 5H^2 for B = budget.trial_bound: there a
    decision could escalate, and each polynomial takes a certified decision
    under `budget`.  Every degree-2 box within the cap has H <= 231, so the
    default budget always counts.
    """
    _check_box("exact_census", n, height)
    if type(budget) is not FactorBudget:
        raise _budget_error("exact_census", budget)
    side = 2 * height + 1
    total = side**n * (side - 1)
    if total > _ENUMERATION_CAP:
        raise BudgetError("box size %d exceeds enumeration cap %d" % (total, _ENUMERATION_CAP))

    if n > 2 or (budget.trial_bound + 1) ** 2 > 5 * height * height:
        counts = _count_columns(n, height)
    else:
        lows = range(-height, height + 1)
        leads = [a for a in lows if a != 0]
        box = (body + (lead,) for body in product(lows, repeat=n) for lead in leads)
        counts = _count(box, _certified_verdict, budget)
    return ExperimentReport("census", n, height, total, *counts, None)


def _count_columns(n: int, height: int) -> tuple[int, ...]:
    """`_count` over the box of degree n, a column of a_0 at a time.

    Each column fixes (a_1, ..., a_n) with a_n > 0, and the counts are
    doubled for a_n < 0.  A class within a column is a bitmask, bit a_0 + H
    for a_0 in [-H, H], built from residue classes as the module docstring
    sets out, and at n = 2 from the rest of D for the a_0 they leave.  The
    columns with G_1 = 0, at n = 2 those with a_1 = 0, go to `_count` whole.
    """
    lows = range(-height, height + 1)
    width = len(lows)
    full = (1 << width) - 1
    repunits = {}

    def residues(r: int, m: int) -> int:
        """The a_0 = r (mod m)."""
        rep = repunits.get(m)
        if rep is None:
            rep = repunits[m] = ((1 << m * -(-width // m)) - 1) // ((1 << m) - 1)
        return (rep << (r + height) % m) & full

    def once(r: int, p: int) -> int:
        """The a_0 = r (mod p) but not (mod p^2)."""
        return residues(r, p) ^ residues(r, p * p)

    primes_of_n = _prime_divisors(n)
    if n == 2:
        # Y = ceil((5H^2)^(1/3)): the primes above Y of a |D| <= 5H^2 number two at most.
        root, exact = iroot(5 * height * height, 3)
        top = root + (not exact)
        small = [p for p in _primes_up_to(top)[1] if p <= top]
        small_product = math.prod(small)
    eis = shifted = f_count = 0
    powers = []  # the (a_1, ..., a_n) of the columns decided one a_0 at a time
    for middle in product(lows, repeat=n - 1):
        g = math.gcd(*middle)
        for an in range(1, height + 1):
            rest = middle + (an,)
            u = n * an
            scaled = [0]  # a_k * u^(n-k), with a_0 left out
            for k, a in enumerate(rest, 1):
                scaled.append(a * u ** (n - k))
            h = _taylor_shift(scaled, -middle[-1])
            if n == 2:
                if not g:  # a_1 = 0
                    powers.append(rest)
                    continue
                candidates = [p for p in small if u % p]
            else:
                local = math.gcd(*h[1 : n - 1])
                if local == 0:
                    powers.append(rest)
                    continue
                candidates = _prime_divisors(_strip_primes_of(local, u))
            plain = 0
            for p in _prime_divisors(g):
                if an % p:
                    plain |= once(0, p)
            found = plain
            for p in candidates:
                square = p * p
                found |= once(-h[0] * pow(u, -n, square) % square, p)
            for p in primes_of_n:
                if an % p:
                    for a0 in lows[: p * p]:  # one a_0 of each class mod p^2
                        if _shift_at((a0,) + rest, p) is not None:
                            found |= residues(a0, p * p)
            if n == 2:
                # The rest w of |D| = |a_1^2 - 2u*a_0| without the primes up
                # to Y and those of u has primes above Y only and w <= Y^3, so
                # w is 1, p, p^2 or p*q: some prime divides D once exactly
                # when w > 1 is not a square.  D = 0 is a NO.
                strip = u * small_product
                a1_squared = middle[0] * middle[0]
                for i, a0 in enumerate(lows):
                    if not found >> i & 1 and (d := abs(a1_squared - 2 * u * a0)):
                        w = _strip_primes_of(d, strip)
                        if w > 1 and math.isqrt(w) ** 2 != w:
                            found |= 1 << i
            eis += plain.bit_count()
            shifted += found.bit_count()
            if not plain:
                continue
            b = _taylor_shift((0,) + rest, 1)
            common = math.gcd(*b[1:n])
            if not common:  # n = 2, b_1 = 0: test f(x+1) = b_0 + a_0 + a_2*x^2 per a_0
                eisenstein = (a0 for i, a0 in enumerate(lows) if plain >> i & 1)
                f_count += sum(_is_plain((b[0] + a0, 0, an)) for a0 in eisenstein)
                continue
            moved = 0
            for q in _prime_divisors(common):
                if an % q:
                    moved |= once(-b[0], q)
            f_count += (plain & moved).bit_count()
    decided = _count(((a0,) + r for r in powers for a0 in lows), _shifted_verdict, DEFAULT_BUDGET)
    return tuple(2 * (x + y) for x, y in zip((eis, shifted, f_count, 0), decided))


def _mix64(seed: int, chunk_index: int) -> int:
    """Substream seed for (seed, chunk): a splitmix-style 64-bit mix."""
    x = (seed * 0x9E3779B97F4A7C15 + chunk_index + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _samples(n: int, height: int, rng: random.Random, count: int):
    """`count` coefficient tuples from the box, coefficients drawn low to high.

    Each coefficient is the value `rng.randint(-height, height)` would give,
    the leading one redrawn while 0.  The values come from `_uniform` in one
    stream: a sample takes the next n of them, then the next nonzero one.
    """
    width = n + 1
    values = chain.from_iterable(_uniform(rng, height, count * width))
    for coeffs in islice(zip(*[values] * width), count):
        if not coeffs[n]:
            lead = next(values)
            while not lead:
                lead = next(values)
            coeffs = coeffs[:n] + (lead,)
        yield coeffs


def _uniform(rng: random.Random, height: int, count: int):
    """Lists of `rng.randint(-height, height)` values, drawn in bulk, endlessly.

    randint draws getrandbits(k), with k = span.bit_length() for
    span = 2*height + 1, until the draw is below span.  getrandbits(k)
    takes w = ceil(k/32) 32-bit words of the generator, little-endian, and
    keeps the top k - 32*(w-1) bits of the last one, while getrandbits(32*m)
    hands out m words in one call.  So the first list comes from `count`
    draws cut from one call, and each later one, which makes up for the
    rejected draws, from a sixteenth as many.
    """
    span = 2 * height + 1
    k = span.bit_length()
    w = -(-k // 32)
    low = 32 * (w - 1)  # bits a draw takes from its whole words
    drop = 32 * w - k  # bits of its last word that a draw discards
    mask = (1 << low) - 1
    size = 4 * w  # bytes per draw
    batch = count
    while True:
        raw = rng.getrandbits(8 * size * batch).to_bytes(size * batch, "little")
        if w == 1:
            draws = [x >> drop for x in struct.unpack("<%dI" % batch, raw)]
        else:
            whole = (int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size))
            draws = [x & mask | x >> (low + drop) << low for x in whole]
        yield [r - height for r in draws if r < span]
        batch = count // 16 + 1


def _mc_run(args) -> tuple[int, int, int, int]:
    """Counts (eisenstein, shifted, f, unresolved) in one pass over chunks first to last - 1."""
    n, height, samples, seed, first, last, budget = args
    sizes = ((i, min(CHUNK_SIZE, samples - i * CHUNK_SIZE)) for i in range(first, last))
    chunks = (_samples(n, height, random.Random(_mix64(seed, i)), k) for i, k in sizes)
    return _count(chain.from_iterable(chunks), _shifted_verdict, budget)


def monte_carlo(
    n: int,
    height: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    budget: FactorBudget = DEFAULT_BUDGET,
    workers: int = 1,
) -> ExperimentReport:
    """Monte Carlo classification of uniform samples from the box.

    Coefficients are drawn uniformly from [-H, H] low to high, the leading
    one redrawn until nonzero.  min(workers, chunks, CPUs) processes take
    contiguous runs of chunks, four a process, as they free up; one process
    takes no pool, and memory does not grow with `samples`.  A chunk depends
    on (seed, chunk index) only, so the report is the same for any `workers`.
    """
    _check_box("monte_carlo", n, height, samples=samples, seed=seed, workers=workers)
    if type(budget) is not FactorBudget:
        raise _budget_error("monte_carlo", budget)
    if samples < 1:
        raise DomainError("monte_carlo needs samples >= 1")
    if workers < 1:
        raise DomainError("monte_carlo needs workers >= 1")
    chunks = -(-samples // CHUNK_SIZE)
    size = min(workers, chunks, os.cpu_count() or 1)
    runs = 1 if size == 1 else min(chunks, 4 * size)
    bounds = [chunks * k // runs for k in range(runs + 1)]
    tasks = [(n, height, samples, seed, a, b, budget) for a, b in zip(bounds, bounds[1:])]
    if size == 1:
        counts = _mc_run(tasks[0])
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        # A fork-started pool starts all its processes at once; a slowed one takes fewer runs.
        with ProcessPoolExecutor(max_workers=size) as pool:
            counts = tuple(map(sum, zip(*pool.map(_mc_run, tasks))))
    return ExperimentReport("montecarlo", n, height, samples, *counts, seed)


def reports_to_csv(reports: list[ExperimentReport]) -> str:
    """Render reports as CSV with the fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        record = r.as_record()
        writer.writerow(["" if record[c] is None else record[c] for c in CSV_COLUMNS])
    return buf.getvalue()