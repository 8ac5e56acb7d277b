"""Exact censuses and Monte Carlo experiments over height-bounded boxes.

The sample space for degree n and height H is the box of integer coefficient
vectors (a_0, ..., a_n) with |a_i| <= H and a_n != 0.  Reports count three
nested classes: Eisenstein polynomials, shifted-Eisenstein polynomials, and
Eisenstein polynomials that stay Eisenstein after the shift x -> x+1.  Each
polynomial gets one shifted decision, whose plain-witness step runs first and
under a fixed budget, so the Eisenstein column does not depend on the budget
the run uses.  A census decides with `decide_certified`, which escalates the
budget until the decision is certified.  Monte Carlo counts verdicts only,
by one rule for every degree (README, "Counting verdicts"): a prime p not
dividing u = n*a_n qualifies when it divides once the local gcd G stripped
of the primes of h_0/G, h_0 = u^n * f(-a_(n-1)/u); for n = 2, h_0 = -a_2*D
shares G's valuations and nothing is stripped.  Past the rule's trial
bound, the certificate search of `shifted_eisenstein` decides.

Monte Carlo runs are deterministic for a given seed and independent of the
worker count: samples are generated in chunks of CHUNK_SIZE, each chunk from
its own substream seeded by (seed, chunk index), and merged in chunk order.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import struct
from dataclasses import dataclass
from itertools import chain, islice, product

from .eisenstein import (
    Verdict,
    _shifted_verdict,
    decide_certified,
    is_eisenstein,
    shifted_eisenstein,
)
from .errors import BudgetError, DomainError
from .intpoly import IntPoly, taylor_shift
from .primes import DEFAULT_BUDGET, FactorBudget, _budget_error

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


@dataclass(frozen=True)
class ExperimentReport:
    """Counts from one census or Monte Carlo run.

    `samples` is the box size for a census and the sample count for a
    simulation; `unresolved` counts heuristic (uncertified) negatives, always
    0 for a census, and `seed` is None for a census.  The rest follows from
    the counts: `ratio` is shifted/eisenstein, and `ci_low`, `ci_high` the
    conservative quotient of the two 95% Wilson intervals of a Monte Carlo
    run.  All three are None when eisenstein is 0, and the interval for a census.
    """

    kind: str
    n: int
    height: int
    samples: int
    eisenstein: int
    shifted: int
    f_count: int
    unresolved: int
    seed: int | None

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
        """A Wilson bound of the shifted proportion over the opposite one of eisenstein's."""
        if self.seed is None or not self.eisenstein:
            return None
        shifted = wilson_interval(self.shifted, self.samples)[upper]
        eisenstein = wilson_interval(self.eisenstein, self.samples)[not upper]
        return shifted / eisenstein if eisenstein > 0 else None

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


def _count(polys, decide) -> tuple[int, int, int, int]:
    """Counts (eisenstein, shifted, f, unresolved) from one decision per polynomial.

    `polys` holds IntPolys or coefficient tuples, whichever `decide` takes.
    `decide(f)` gives the verdict and, when f is Eisenstein, f as an IntPoly
    (None otherwise).  A YES counts as shifted, and also as Eisenstein when
    f is; only then is f(x+1) tested for the f column.
    """
    eis = shifted = f_count = unresolved = 0
    for f in polys:
        verdict, eisenstein = decide(f)
        if verdict is Verdict.YES:
            shifted += 1
            if eisenstein is not None:
                eis += 1
                f_count += is_eisenstein(taylor_shift(eisenstein, 1))
        elif verdict is Verdict.NO_HEURISTIC:
            unresolved += 1
    return eis, shifted, f_count, unresolved


def exact_census(n: int, height: int, budget: FactorBudget = DEFAULT_BUDGET) -> ExperimentReport:
    """Exact counts over the whole box, every decision certified; a box of
    more than 10^8 polynomials is refused with BudgetError."""
    _check_box("exact_census", n, height)
    if type(budget) is not FactorBudget:
        raise _budget_error("exact_census", budget)
    side = 2 * height + 1
    total = side**n * (side - 1)
    if total > _ENUMERATION_CAP:
        raise BudgetError("box size %d exceeds enumeration cap %d" % (total, _ENUMERATION_CAP))
    lows = range(-height, height + 1)
    leads = [a for a in lows if a != 0]
    box = (IntPoly(body + (lead,)) for body in product(lows, repeat=n) for lead in leads)

    def decide(f):
        # This module's binding of shifted_eisenstein, so wrappers installed
        # on it see every escalated attempt.
        decision = decide_certified(f, budget, decide=shifted_eisenstein)
        certificate = decision.certificate
        plain = certificate is not None and certificate.shift == 0
        return decision.verdict, f if plain else None

    counts = _count(box, decide)
    return ExperimentReport("census", n, height, total, *counts, None)


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


def _mc_chunk(args) -> tuple[int, int, int, int]:
    """Counts (eisenstein, shifted, f, unresolved) for one sample chunk.

    The samples stay coefficient tuples; only an Eisenstein one becomes an
    IntPoly, for its f(x+1) check.
    """
    n, height, seed, chunk_index, count, budget = args
    rng = random.Random(_mix64(seed, chunk_index))

    def decide(coeffs):
        verdict, plain = _shifted_verdict(coeffs, budget)
        return verdict, IntPoly(coeffs) if plain else None

    return _count(_samples(n, height, rng, count), decide)


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
    one redrawn until nonzero.  The report is identical for any `workers`
    value because chunk results only depend on (seed, chunk index).  The
    pool has at most one process per chunk and per CPU.
    """
    _check_box("monte_carlo", n, height, samples=samples, seed=seed, workers=workers)
    if type(budget) is not FactorBudget:
        raise _budget_error("monte_carlo", budget)
    if samples < 1:
        raise DomainError("monte_carlo needs samples >= 1")
    if workers < 1:
        raise DomainError("monte_carlo needs workers >= 1")
    tasks = [
        (n, height, seed, start // CHUNK_SIZE, min(CHUNK_SIZE, samples - start), budget)
        for start in range(0, samples, CHUNK_SIZE)
    ]
    if workers == 1:
        results = [_mc_chunk(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        # A fork-started pool starts all its processes at once.
        size = min(workers, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_mc_chunk, tasks, chunksize=8))
    counts = map(sum, zip(*results))
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