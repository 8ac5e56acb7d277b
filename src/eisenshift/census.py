"""Exact censuses and Monte Carlo experiments over height-bounded boxes.

The sample space for degree n and height H is the box of integer coefficient
vectors (a_0, ..., a_n) with |a_i| <= H and a_n != 0.  Reports count three
nested classes: Eisenstein polynomials, shifted-Eisenstein polynomials, and
Eisenstein polynomials that stay Eisenstein after the shift x -> x+1.

Monte Carlo runs are deterministic for a given seed and independent of the
worker count: samples are generated in fixed-size chunks, each chunk from its
own substream seeded by (seed, chunk index), and merged in chunk order.
"""

from __future__ import annotations

import csv
import io
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

from .eisenstein import Verdict, decide_certified, is_eisenstein, shifted_eisenstein
from .errors import BudgetError, DomainError
from .intpoly import IntPoly, taylor_shift
from .primes import DEFAULT_BUDGET, DEFAULT_SEED, FactorBudget, euler_phi, mobius

__all__ = [
    "ExperimentReport",
    "CSV_COLUMNS",
    "wilson_interval",
    "exact_census",
    "census_h_subset",
    "h_subset_main_term",
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

DEFAULT_CHUNK_SIZE = 256
DEFAULT_ENUMERATION_CAP = 100_000_000


@dataclass(frozen=True)
class ExperimentReport:
    """Counts from one census or Monte Carlo run.

    `samples` is the box size for a census and the sample count for a
    simulation; `ratio` is shifted/eisenstein (None when eisenstein is 0);
    the Wilson-based interval and the seed are None for exact censuses;
    `unresolved` counts heuristic (uncertified) negatives, always 0 for a
    census.
    """

    kind: str
    n: int
    height: int
    samples: int
    eisenstein: int
    shifted: int
    f_count: int
    ratio: float | None
    ci_low: float | None
    ci_high: float | None
    seed: int | None
    unresolved: int

    def as_record(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "H": self.height,
            "samples": self.samples,
            "eisenstein": self.eisenstein,
            "shifted": self.shifted,
            "f_count": self.f_count,
            "ratio": self.ratio,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "unresolved": self.unresolved,
        }


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise DomainError("wilson_interval needs 0 <= successes <= trials, trials > 0")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _ratio_interval(
    shifted: int, eisenstein: int, samples: int
) -> tuple[float | None, float | None, float | None]:
    """Conservative interval for shifted/eisenstein from the two proportions."""
    if eisenstein == 0:
        return None, None, None
    ratio = shifted / eisenstein
    s_lo, s_hi = wilson_interval(shifted, samples)
    e_lo, e_hi = wilson_interval(eisenstein, samples)
    lo = s_lo / e_hi if e_hi > 0 else None
    hi = s_hi / e_lo if e_lo > 0 else None
    return ratio, lo, hi


def exact_census(
    n: int,
    height: int,
    budget: FactorBudget = DEFAULT_BUDGET,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExperimentReport:
    """Exact counts over the whole box; every decision is certified."""
    if n < 2:
        raise DomainError("exact_census needs degree >= 2")
    if height < 1:
        raise DomainError("exact_census needs height >= 1")
    side = 2 * height + 1
    total = side**n * (side - 1)
    if total > enumeration_cap:
        raise BudgetError(
            "box size %d exceeds enumeration cap %d" % (total, enumeration_cap)
        )
    eis = 0
    shifted = 0
    f_count = 0
    lows = range(-height, height + 1)
    leads = [a for a in lows if a != 0]
    for body in product(lows, repeat=n):
        for lead in leads:
            f = IntPoly(body + (lead,))
            f_is_eis = is_eisenstein(f)
            if f_is_eis:
                eis += 1
                shifted += 1
                if is_eisenstein(taylor_shift(f, 1)):
                    f_count += 1
            else:
                # This module's binding, so wrappers installed on it see
                # every escalated attempt.
                decision = decide_certified(f, budget, decide=shifted_eisenstein)
                if decision.verdict is Verdict.YES:
                    shifted += 1
    ratio = shifted / eis if eis else None
    return ExperimentReport(
        kind="census",
        n=n,
        height=height,
        samples=total,
        eisenstein=eis,
        shifted=shifted,
        f_count=f_count,
        ratio=ratio,
        ci_low=None,
        ci_high=None,
        seed=None,
        unresolved=0,
    )


def census_h_subset(n: int, d: int, height: int) -> int:
    """Exact count of the height-<=H box slice used for the d-local census.

    Counts degree-n vectors with d | a_i for all i < n, gcd(a_0/d, d) = 1,
    and gcd(a_n, d) = 1.  The three conditions are coordinatewise, so the
    count is a product of one-dimensional counts.  d must be squarefree.
    """
    if n < 2:
        raise DomainError("census_h_subset needs degree >= 2")
    if height < 1:
        raise DomainError("census_h_subset needs height >= 1")
    if d < 1 or mobius(d) == 0:
        raise DomainError("census_h_subset needs squarefree d >= 1")
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
    if n < 2 or height < 1 or d < 1 or mobius(d) == 0:
        raise DomainError("h_subset_main_term needs n >= 2, H >= 1, squarefree d")
    phi = euler_phi(d)
    return 2 ** (n + 1) * height ** (n + 1) * phi * phi / d ** (n + 2)


def _mix64(seed: int, chunk_index: int) -> int:
    """Substream seed for (seed, chunk): a splitmix-style 64-bit mix."""
    x = (seed * 0x9E3779B97F4A7C15 + chunk_index + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mc_chunk(args) -> tuple[int, int, int, int]:
    """Counts (eisenstein, shifted, f, unresolved) for one sample chunk."""
    n, height, seed, chunk_index, count, budget = args
    rng = random.Random(_mix64(seed, chunk_index))
    eis = 0
    shifted = 0
    f_count = 0
    unresolved = 0
    for _ in range(count):
        coeffs = [rng.randint(-height, height) for _ in range(n)]
        lead = rng.randint(-height, height)
        while lead == 0:
            lead = rng.randint(-height, height)
        coeffs.append(lead)
        f = IntPoly(tuple(coeffs))
        if is_eisenstein(f):
            eis += 1
            shifted += 1
            if is_eisenstein(taylor_shift(f, 1)):
                f_count += 1
            continue
        decision = shifted_eisenstein(f, budget)
        if decision.verdict is Verdict.YES:
            shifted += 1
        elif decision.verdict is Verdict.NO_HEURISTIC:
            unresolved += 1
    return eis, shifted, f_count, unresolved


def monte_carlo(
    n: int,
    height: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    budget: FactorBudget = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> ExperimentReport:
    """Monte Carlo classification of uniform samples from the box.

    Coefficients are drawn uniformly from [-H, H] low to high, the leading
    one redrawn until nonzero.  The report is identical for any `workers`
    value because chunk results only depend on (seed, chunk index).
    """
    if n < 2:
        raise DomainError("monte_carlo needs degree >= 2")
    if height < 1:
        raise DomainError("monte_carlo needs height >= 1")
    if samples < 1:
        raise DomainError("monte_carlo needs samples >= 1")
    if chunk_size < 1 or workers < 1:
        raise DomainError("chunk_size and workers must be >= 1")
    tasks = []
    index = 0
    remaining = samples
    while remaining > 0:
        count = min(chunk_size, remaining)
        tasks.append((n, height, seed, index, count, budget))
        index += 1
        remaining -= count
    if workers == 1:
        results = [_mc_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_chunk, tasks, chunksize=8))
    eis = sum(r[0] for r in results)
    shifted = sum(r[1] for r in results)
    f_count = sum(r[2] for r in results)
    unresolved = sum(r[3] for r in results)
    ratio, ci_low, ci_high = _ratio_interval(shifted, eis, samples)
    return ExperimentReport(
        kind="montecarlo",
        n=n,
        height=height,
        samples=samples,
        eisenstein=eis,
        shifted=shifted,
        f_count=f_count,
        ratio=ratio,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed,
        unresolved=unresolved,
    )


def reports_to_csv(reports: list[ExperimentReport]) -> str:
    """Render reports as CSV with the fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        record = r.as_record()
        writer.writerow(["" if record[c] is None else record[c] for c in CSV_COLUMNS])
    return buf.getvalue()