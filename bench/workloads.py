"""The benchmark's workloads: their top-level calls, operation streams and checks.

A workload is a fixed list of top-level library calls built from the seed
(`calls(seed)`), each made by `call(arg)`; the harness repeats identical
rounds of them.  `verify(arg, result, checks)` checks a call's output and
returns the latencies in ns of the workload's public operations in that
call: for the decision workloads it replays the call's polynomial stream
through the decision the call makes, one timed decision per polynomial.  On the
density table each call is one operation, and `verify` returns None.

The top-level calls go through module attributes (`census.monte_carlo`, ...)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import product

import eisenshift.census as census
import eisenshift.density as density
import eisenshift.primes as primes
from eisenshift.eisenstein import (
    Verdict,
    is_eisenstein,
    shifted_eisenstein,
    verify_certificate,
)
from eisenshift.intpoly import IntPoly, taylor_shift
from eisenshift.primes import DEFAULT_BUDGET, FactorBudget
from mpmath import primezeta, workdps

HEIGHT = 10**6  # the acceptance protocol's Monte Carlo height
CHUNK = 256  # README "Experiments": fixed chunks of 256 samples
_MASK = (1 << 64) - 1
MAX_ESCALATIONS = 8  # exact_census's limit on budget escalations


class Checks:
    """Counts output checks; every failed one is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def splitmix(seed: int, chunk: int) -> int:
    """Seed of the `chunk`-th substream: the splitmix64 finalizer of seed*phi + chunk + 1."""
    x = (seed * 0x9E3779B97F4A7C15 + chunk + 1) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mc_stream(n: int, height: int, samples: int, seed: int):
    """The polynomials `monte_carlo(n, height, samples, seed)` classifies, in order.

    Rebuilt from the documented scheme, not from the package: chunk i is
    drawn by random.Random(splitmix(seed, i)), coefficients low to high from
    [-height, height], the leading one redrawn until nonzero.
    """
    for index in range(-(-samples // CHUNK)):
        rng = random.Random(splitmix(seed, index))
        for _ in range(min(CHUNK, samples - index * CHUNK)):
            coeffs = [rng.randint(-height, height) for _ in range(n)]
            lead = rng.randint(-height, height)
            while lead == 0:
                lead = rng.randint(-height, height)
            yield IntPoly(tuple(coeffs) + (lead,))


def box_stream(n: int, height: int):
    """The polynomials of the census box, in `exact_census` order."""
    lows = range(-height, height + 1)
    leads = [a for a in lows if a != 0]
    for body in product(lows, repeat=n):
        for lead in leads:
            yield IntPoly(body + (lead,))


def decide_certified(f, budget: FactorBudget) -> tuple:
    """`shifted_eisenstein` escalating a heuristic NO the way `exact_census` does.

    The budget grows 4-fold up to MAX_ESCALATIONS times; returns the last
    decision and the number of escalations.
    """
    decision = shifted_eisenstein(f, budget)
    escalations = 0
    while decision.verdict is Verdict.NO_HEURISTIC and escalations < MAX_ESCALATIONS:
        escalations += 1
        decision = shifted_eisenstein(f, budget.scaled(4**escalations))
    return decision, escalations


def replay(stream, checks: Checks, label: str, budget: FactorBudget | None = None):
    """Time the decision of every polynomial and check each verdict.

    With no budget the decision is one `shifted_eisenstein(f)` call, as
    `monte_carlo` makes it; with one it is `decide_certified(f, budget)`, as
    `exact_census` makes it.  A NO that stays heuristic is a failure.
    Returns (latencies_ns, (eisenstein, shifted, f_count, unresolved),
    escalations) with the counts tallied the way census reports define them.
    """
    latencies = []
    eis = shifted = f_count = unresolved = escalations = 0
    clock = time.perf_counter_ns
    for f in stream:
        start = clock()
        if budget is None:
            decision = shifted_eisenstein(f)
        else:
            decision, steps = decide_certified(f, budget)
            escalations += steps
        latencies.append(clock() - start)
        plain = is_eisenstein(f)
        if plain:
            eis += 1
            f_count += is_eisenstein(taylor_shift(f, 1))
        if decision.verdict is Verdict.YES:
            shifted += 1
            ok = verify_certificate(f, decision.certificate)
        else:
            unresolved += decision.verdict is Verdict.NO_HEURISTIC
            ok = decision.verdict is Verdict.NO_CERTIFIED and not plain
        checks.expect(ok, "%s: %s on %s" % (label, decision, f))
    return latencies, (eis, shifted, f_count, unresolved), escalations


class MonteCarlo:
    """`monte_carlo(degree, 10**6, samples, seed)` calls, workers=1, one seed per call."""

    def __init__(self, degree: int, calls: int, samples: int, pool_samples: int):
        self.degree = degree
        self.call_count = calls
        self.samples = samples
        self.polys = calls * samples
        self.pool_samples = pool_samples

    def calls(self, seed: int) -> list[int]:
        return [seed * 1_000_003 + j for j in range(1, self.call_count + 1)]

    def call(self, seed: int):
        return census.monte_carlo(self.degree, HEIGHT, self.samples, seed=seed)

    def verify(self, seed: int, report, checks: Checks) -> list[int]:
        stream = mc_stream(self.degree, HEIGHT, self.samples, seed)
        latencies, tally, _ = replay(stream, checks, "seed %d" % seed)
        expected = (report.eisenstein, report.shifted, report.f_count, report.unresolved)
        checks.expect(tally == expected, "seed %d: replay %s != report %s" % (seed, tally, expected))
        return latencies

    def pool_speedup(self, seed: int, checks: Checks) -> float:
        """Median over 3 pairs of untraced workers=1 over workers=2 wall time."""
        ratios = []
        for _ in range(3):
            walls = []
            reports = []
            for workers in (1, 2):
                start = time.perf_counter()
                reports.append(
                    census.monte_carlo(
                        self.degree, HEIGHT, self.pool_samples, seed=seed, workers=workers
                    )
                )
                walls.append(time.perf_counter() - start)
            checks.expect(reports[0] == reports[1], "seed %d: workers=2 report differs" % seed)
            ratios.append(walls[0] / walls[1])
        return statistics.median(ratios)


# eisenstein / shifted / f_count per box, as computed at the benchmark's
# first commit; (2, 2) is README's census example.
CENSUS_COUNTS = {
    (2, 2): (12, 54, 2),
    (4, 2): (108, 210, 2),
    (3, 3): (144, 428, 10),
    (2, 6): (364, 1410, 44),
}

# A factoring budget small enough that about one decision in six on the
# (2, 6) box comes back heuristic and `exact_census` escalates it.
ESCALATION_BUDGET = FactorBudget(trial_bound=2, rho_iterations=1)


class CensusBox:
    """One `exact_census(n, height, budget)` call per box; seed-free, exact answers."""

    def __init__(self, boxes):
        self.boxes = tuple(boxes)
        self.polys = sum((2 * h + 1) ** n * 2 * h for n, h, _ in self.boxes)
        self.pool_samples = 0

    def calls(self, seed: int):
        return self.boxes

    def call(self, box):
        return census.exact_census(*box)

    def verify(self, box, report, checks: Checks) -> list[int]:
        n, height, budget = box
        latencies, tally, escalations = replay(box_stream(n, height), checks, "box %s" % (box,), budget)
        counts = (report.eisenstein, report.shifted, report.f_count)
        checks.expect(tally[:3] == counts, "box %s: replay %s != census %s" % (box, tally, counts))
        checks.expect(
            counts == CENSUS_COUNTS[n, height],
            "box %s: census %s != %s" % (box, counts, CENSUS_COUNTS[n, height]),
        )
        if budget is ESCALATION_BUDGET:
            checks.expect(escalations > 0, "box %s: the budget never escalated" % (box,))
        return latencies


# Acceptance criterion 1: gamma_n to 3 significant figures.
GAMMA_TARGETS = {2: 1.33e-2, 3: 2.36e-4, 4: 9.44e-7, 5: 9.28e-10, 10: 7.70e-34}


class DensityTable:
    """gamma_n for the criterion-1 degrees over the first primes, plus the sinh check.

    The calls are first_primes, one density_report per degree and
    sinh_bound_check, the last ones over a prime list made once up front.
    """

    def __init__(self, prime_count: int):
        self.prime_count = prime_count
        self.primes = primes.first_primes(prime_count)
        self.polys = 0
        self.pool_samples = 0
        # P_n = P(n) - 2 P(n+1) + P(n+2) with P the prime zeta function,
        # which mpmath evaluates by an unrelated method; 60 digits resolve
        # the tail bound at n = 10 (below 1e-46).
        with workdps(60):
            self.p_n_exact = {
                n: primezeta(n) - 2 * primezeta(n + 1) + primezeta(n + 2)
                for n in GAMMA_TARGETS
            }

    def calls(self, seed: int):
        return ["first_primes", *GAMMA_TARGETS, "sinh"]

    def call(self, what):
        if what == "first_primes":
            return primes.first_primes(self.prime_count)
        if what == "sinh":
            return density.sinh_bound_check(self.primes)
        return density.density_report(what, self.primes)

    def verify(self, what, result, checks: Checks) -> None:
        if what == "first_primes":
            checks.expect(result == self.primes, "first_primes changed between calls")
        elif what == "sinh":
            partial, union = result
            checks.expect(0.45 < partial < 0.46 and union < 1, "sinh check %s, %s" % (partial, union))
        else:
            target = GAMMA_TARGETS[what]
            checks.expect(
                abs(float(result.gamma) - target) < 5e-3 * target,
                "gamma_%d = %s, target %s" % (what, result.gamma, target),
            )
            with workdps(60):
                gap = abs(result.p_n - self.p_n_exact[what])
            checks.expect(
                gap < result.p_n_tail, "P_%d off by %s > tail %s" % (what, gap, result.p_n_tail)
            )
        return None


WORKLOADS = {
    "mc-quartic": lambda: MonteCarlo(4, calls=16, samples=2 * CHUNK, pool_samples=8192),
    "mc-quadratic": lambda: MonteCarlo(2, calls=16, samples=CHUNK, pool_samples=0),
    "census-box": lambda: CensusBox(
        ((4, 2, DEFAULT_BUDGET), (3, 3, DEFAULT_BUDGET), (2, 6, DEFAULT_BUDGET), (2, 6, ESCALATION_BUDGET))
    ),
    "density-table": lambda: DensityTable(10_000),
}
