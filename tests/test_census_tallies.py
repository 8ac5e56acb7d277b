"""Census and Monte Carlo tallies against a per-polynomial tally, and the work behind them.

Monte Carlo, and the degree-2 census under a budget that may escalate, make
one shifted decision per polynomial and read the Eisenstein and f columns
from it; the tally here asks `is_eisenstein` and the shifted decision
separately for every polynomial the experiment built.  Every other census
counts residue classes of a_0 instead, and is checked against the same tally
over its whole box.  The Monte Carlo sample stream itself is pinned against
the documented scheme.
"""

import concurrent.futures
import math
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import eisenshift.census as census_module
import eisenshift.eisenstein as eisenstein_module
import eisenshift.primes as primes_module
from eisenshift import (
    DEFAULT_BUDGET,
    BudgetError,
    FactorBudget,
    IntPoly,
    Verdict,
    decide_certified,
    exact_census,
    is_eisenstein,
    monte_carlo,
    shifted_eisenstein,
    taylor_shift,
)

BUDGETS = (DEFAULT_BUDGET, FactorBudget(2, 0))


class _Counting:
    """Wraps a function, counting its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _run_recorded(monkeypatch, experiment):
    """Run `experiment()`, returning its report, the polynomials it classified
    and its call counts of the Monte Carlo verdict decision and of `shifted_eisenstein`.

    Monte Carlo classifies the coefficient tuples `census._samples` yields,
    and a census the IntPolys it builds.
    """
    built = []
    sampled = []

    def record(coeffs):
        built.append(IntPoly(coeffs))
        return built[-1]

    samples = census_module._samples

    def record_samples(*args):
        for coeffs in samples(*args):
            sampled.append(IntPoly(coeffs))
            yield coeffs

    monkeypatch.setattr(census_module, "IntPoly", record)
    monkeypatch.setattr(census_module, "_samples", record_samples)
    witness = _Counting(eisenstein_module._smallest_witness)
    monkeypatch.setattr(eisenstein_module, "_smallest_witness", witness)
    plain = _Counting(eisenstein_module._is_plain)
    monkeypatch.setattr(eisenstein_module, "_is_plain", plain)
    monkeypatch.setattr(census_module, "_is_plain", plain)
    verdicts = _Counting(census_module._shifted_verdict)
    monkeypatch.setattr(census_module, "_shifted_verdict", verdicts)
    decisions = _Counting(shifted_eisenstein)
    monkeypatch.setattr(census_module, "shifted_eisenstein", decisions)
    report = experiment()
    monkeypatch.undo()
    # One plain test per verdict and one per f(x+1) check, which only
    # Eisenstein polynomials get; one plain-witness walk per decision
    # (escalations included), as no gcd here is past the plain test's reach.
    assert plain.calls == verdicts.calls + report.eisenstein
    assert witness.calls == decisions.calls
    if sampled:
        # Monte Carlo builds no IntPoly.
        assert built == []
        built = sampled
    return report, built, (verdicts.calls, decisions.calls)


def _tally(polys, decide):
    eis = shifted = f_count = unresolved = 0
    for f in polys:
        plain = is_eisenstein(f)
        verdict = decide(f).verdict
        assert verdict is Verdict.YES or not plain, f
        eis += plain
        f_count += plain and is_eisenstein(taylor_shift(f, 1))
        shifted += verdict is Verdict.YES
        unresolved += verdict is Verdict.NO_HEURISTIC
    return eis, shifted, f_count, unresolved


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n, height, seed", [(2, 10**6, 5), (3, 1000, 3), (4, 100, 11)])
def test_monte_carlo_matches_per_polynomial_tally(monkeypatch, budget, n, height, seed):
    report, built, decisions = _run_recorded(
        monkeypatch, lambda: monte_carlo(n, height, 300, seed=seed, budget=budget)
    )
    # Monte Carlo makes one verdict decision per polynomial and no other.
    assert len(built) == 300 and decisions == (300, 0)
    expected = _tally(built, lambda f: shifted_eisenstein(f, budget))
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == expected


_MASK = (1 << 64) - 1


def _splitmix64(seed, chunk):
    """Substream seed of a chunk: splitmix64's output mix of seed*phi + chunk + 1."""
    z = (seed * 0x9E3779B97F4A7C15 + chunk + 1) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _randint_samples(n, height, rng, count):
    """`count` coefficient tuples by randint, low to high, a_n redrawn until nonzero."""
    samples = []
    for _ in range(count):
        coeffs = [rng.randint(-height, height) for _ in range(n)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-height, height)
        samples.append(tuple(coeffs) + (lead,))
    return samples


def _documented_samples(n, height, samples, seed):
    """README's stream: one Random per 256-sample chunk."""
    polys = []
    for start in range(0, samples, 256):
        rng = random.Random(_splitmix64(seed, start // 256))
        polys += map(IntPoly, _randint_samples(n, height, rng, min(256, samples - start)))
    return polys


@pytest.mark.parametrize("seed", [7, -1])
@pytest.mark.parametrize("samples", [300, 513])
@pytest.mark.parametrize("n", [2, 4])
def test_monte_carlo_draws_the_documented_sample_stream(monkeypatch, n, samples, seed):
    # 300 and 513 end in a partial chunk.  H = 1 and H = 2 make zero leads
    # common (one draw in three, one in five); the span 2^21 + 1 of H = 2^20
    # makes randint reject almost half of its 22-bit draws.  H = 2^31 - 1,
    # 2^31 and 10^12 draw 32, 33 and 41 bits: one whole word, and two words
    # of which the second gives its top 1 or 9 bits.
    for height in (1, 2, 10**6, 2**20, 2**31 - 1, 2**31, 10**12):
        _, built, _ = _run_recorded(
            monkeypatch, lambda: monte_carlo(n, height, samples, seed=seed)
        )
        assert built == _documented_samples(n, height, samples, seed)


class _CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [2, 4])
def test_samples_refill_their_bulk_draw(n):
    # With H = 1 a quarter of the 2-bit draws is rejected and a third of the
    # leads is 0, so 513 samples in one stream need several refills.
    rng = _CountingRandom(3)
    drawn = list(census_module._samples(n, 1, rng, 513))
    assert rng.calls > 2
    assert drawn == _randint_samples(n, 1, random.Random(3), 513)


@pytest.mark.parametrize("budget", BUDGETS)
def test_exact_census_matches_per_polynomial_tally(monkeypatch, budget):
    if budget is DEFAULT_BUDGET:
        # (B+1)^2 > 5H^2 for the trial bound B: the census counts, and takes
        # no decision per polynomial.
        decisions = _Counting(shifted_eisenstein)
        monkeypatch.setattr(census_module, "shifted_eisenstein", decisions)
        report = exact_census(2, 3, budget)
        built = _box(2, 3)
        assert decisions.calls == 0
    else:
        report, built, (verdicts, decisions) = _run_recorded(
            monkeypatch, lambda: exact_census(2, 3, budget)
        )
        # Below that bound it keeps certified, escalated decisions.
        assert len(built) == report.samples <= decisions and verdicts == 0
    expected = _tally(built, lambda f: decide_certified(f, budget))
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == expected


def _box(n, height):
    lows = range(-height, height + 1)
    return [IntPoly(body + (lead,)) for body in product(lows, repeat=n) for lead in lows if lead]


def _tails(n, height):
    """The (a_1, ..., a_n) with a_n > 0 of the box."""
    lows = range(-height, height + 1)
    return [middle + (an,) for middle in product(lows, repeat=n - 1) for an in range(1, height + 1)]


def _is_power_plus_constant(tail):
    """Whether f - a_0 = a_n*((x - r)^n - (-r)^n) over Q, for r = -a_(n-1)/(n*a_n):
    every h_1, ..., h_(n-2) of the census is 0."""
    n, an = len(tail), tail[-1]
    r = Fraction(-tail[-2], n * an)
    return all(tail[k - 1] == an * comb(n, k) * (-r) ** (n - k) for k in range(1, n))


def _shift_keeps_only_the_ends(tail):
    """Whether f(x+1) - f(1) = a_n*x^n: every b_1, ..., b_(n-1) of the census is 0."""
    return taylor_shift(IntPoly((0,) + tail), 1).coeffs[1:-1] == (0,) * (len(tail) - 1)


COUNTING_BOXES = [(3, 2), (3, 3), (4, 2), (5, 2), (6, 1)]


@pytest.mark.parametrize("n, height", COUNTING_BOXES + [(2, height) for height in range(1, 9)])
def test_counting_census_matches_per_polynomial_tally(n, height):
    report = exact_census(n, height)
    expected = _tally(_box(n, height), decide_certified)
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == expected


def test_counting_boxes_reach_every_per_polynomial_fallback():
    # A column with G_1 = 0 is decided one polynomial at a time, among them
    # those with a_1 = ... = a_(n-1) = 0, whose Eisenstein primes are not
    # bounded by a coefficient gcd; a column whose f(x+1) keeps only its
    # ends tests f(x+1) per polynomial.
    tails = [t for n, height in COUNTING_BOXES for t in _tails(n, height)]
    assert any(_is_power_plus_constant(t) and any(t[:-1]) for t in tails)
    bare = [t for t in tails if not any(t[:-1])]
    assert bare and all(map(_is_power_plus_constant, bare))
    # ... with an Eisenstein a_0, so that its f(x+1) is tested: x^3 - 3x^2 + 3x + 3.
    assert (3, -3, 1) in tails and _shift_keeps_only_the_ends((3, -3, 1))


def _count_avoided(monkeypatch):
    """Count the calls of the decisions a counting census does without."""
    avoided = {}
    for module, name in (
        (census_module, "decide_certified"),
        (census_module, "shifted_eisenstein"),
        (eisenstein_module, "_certificate_search"),
        (eisenstein_module, "factorize"),
        (eisenstein_module, "discriminant"),
    ):
        avoided[name] = _Counting(getattr(module, name))
        monkeypatch.setattr(module, name, avoided[name])
    return avoided


def test_counting_census_decides_only_the_power_columns(monkeypatch):
    verdicts = _Counting(census_module._shifted_verdict)
    monkeypatch.setattr(census_module, "_shifted_verdict", verdicts)
    avoided = _count_avoided(monkeypatch)
    report = exact_census(4, 2)
    power_columns = sum(map(_is_power_plus_constant, _tails(4, 2)))
    assert power_columns > 0
    # One verdict per a_0 of a G_1 = 0 column with a_n > 0, and none of
    # them needs the certificate search.
    assert verdicts.calls == 5 * power_columns < report.samples == 2500
    assert {name: f.calls for name, f in avoided.items()} == dict.fromkeys(avoided, 0)
    assert report.unresolved == 0


def test_degree_2_count_matches_the_verdict_rule():
    # Past the boxes a certified decision per polynomial can afford: every
    # polynomial of (2, 25) through Monte Carlo's verdict rule.
    height = 25
    report = exact_census(2, height)
    lows = range(-height, height + 1)
    box = (body + (lead,) for body in product(lows, repeat=2) for lead in lows if lead)
    expected = census_module._count(box, census_module._shifted_verdict, DEFAULT_BUDGET)
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == expected


def test_degree_2_census_counts_exactly_when_no_decision_can_escalate(monkeypatch):
    # |D| <= 5H^2 = 180 at H = 6: with (B+1)^2 > 180 a rest left by trial
    # division to B is prime, no decision escalates and the census counts;
    # B = 13 is the least such bound, and B = 12 decides each polynomial.
    avoided = _count_avoided(monkeypatch)
    counted = exact_census(2, 6, FactorBudget(13, 0))
    assert {name: f.calls for name, f in avoided.items()} == dict.fromkeys(avoided, 0)
    decided = exact_census(2, 6, FactorBudget(12, 0))
    assert avoided["shifted_eisenstein"].calls >= decided.samples == 13**2 * 12
    assert counted == decided == exact_census(2, 6)


def test_counting_census_needs_no_budget():
    # FactorBudget(0, 0) cannot grow, so a decision it leaves heuristic
    # raises BudgetError, as it does for polynomials of the (4, 3), (3, 4)
    # and (3, 5) boxes that a decision per polynomial used to end on.  A
    # census of degree >= 3 ignores its budget.
    stuck = FactorBudget(0, 0)
    for f in (IntPoly((-2, -2, 3, -2, -2)), IntPoly((-4, 1, -3, 3))):
        with pytest.raises(BudgetError, match="cannot grow"):
            decide_certified(f, stuck)
    for n, height in ((4, 3), (3, 4), (3, 5)):
        assert exact_census(n, height, stuck) == exact_census(n, height)


def test_the_enumeration_cap_keeps_power_columns_within_the_verdict_rule():
    # In a G_1 = 0 column the verdict rule's G' is at most
    # |h_0| = |sum_k a_k*u^(n-k)*t^k| <= H^(n+1) * (n^(n+1) - 1)/(n - 1),
    # and the rule gives up only at G' >= (B+1)^5 for the trial bound B.
    cap = census_module._ENUMERATION_CAP
    limit = (DEFAULT_BUDGET.trial_bound + 1) ** 5
    bounds = {}
    n = 3
    while 3**n * 2 <= cap:
        height = 1  # the largest height whose box the cap admits
        while (2 * height + 3) ** n * (2 * height + 2) <= cap:
            height += 1
        bounds[n, height] = height ** (n + 1) * (n ** (n + 1) - 1) // (n - 1)
        n += 1
    assert (3, 49) in bounds and (16, 1) in bounds and n == 17
    assert max(bounds.values()) == bounds[16, 1] < 2 * 10**19 < limit


def _distinct_primes(top):
    """The distinct prime factors of each m <= top, from a smallest-prime-factor sieve."""
    spf = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == p:
            for k in range(p * p, top + 1, p):
                if spf[k] == k:
                    spf[k] = p
    factors = [()] * (top + 1)
    for m in range(2, top + 1):
        p = spf[m]
        rest = factors[m // p]
        factors[m] = rest if rest[:1] == (p,) else (p,) + rest
    return factors


def test_prime_divisors_match_brute_force(fresh_sieve):
    prime_divisors = eisenstein_module._prime_divisors
    for m, expected in enumerate(_distinct_primes(3 * 10**4)):
        if m:
            assert prime_divisors(m) == expected, m
    # Trial division runs to isqrt(m) only, so the prime table does not grow
    # to the prime rest of 2 * 999983.  The m ascend by isqrt(m).
    for m, expected in (
        (2 * 999983, (2, 999983)),
        (3 * 5 * 7 * 1009 * 1013, (3, 5, 7, 1009, 1013)),
        (999983 * 1000003, (999983, 1000003)),
        (1000003**2, (1000003,)),
    ):
        assert prime_divisors(m) == expected, m
        assert primes_module._sieve[0] <= max(1000, math.isqrt(m)), m


def test_counting_census_leaves_the_prime_table_as_it_was(monkeypatch):
    # From the table built at import: neither the plain-witness walks of the
    # power columns nor the census's own factoring reach past it.
    table = primes_module._sieve_table(1000)
    monkeypatch.setattr(primes_module, "_sieve", table)
    exact_census(3, 12)
    assert primes_module._sieve is table


@pytest.mark.parametrize(
    "n, height, counts",
    [
        (3, 4, (308, 960, 12)),
        (3, 5, (588, 2132, 42)),
        (4, 3, (432, 934, 8)),
        (4, 4, (1324, 3458, 12)),
        (5, 2, (324, 564, 2)),
        (6, 2, (972, 1220, 2)),
        (3, 12, (22156, 64752, 770)),
        (2, 10, (1396, 6804, 184)),
        (2, 20, (10452, 57350, 1386)),
        (2, 30, (37360, 198608, 4764)),
    ],
)
def test_counting_census_keeps_the_per_polynomial_counts(n, height, counts):
    # The counts of the per-polynomial census these boxes were first run with.
    report = exact_census(n, height)
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == counts + (0,)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_monte_carlo_starts_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(census_module.os, "cpu_count", lambda: 8)
    _InlineExecutor.sizes.clear()
    serial = monte_carlo(2, 50, 300, seed=9, workers=1)
    assert _InlineExecutor.sizes == []
    assert monte_carlo(2, 50, 300, seed=9, workers=10_000) == serial  # two chunks
    # One chunk is one run, counted without a pool.
    assert monte_carlo(2, 50, 100, seed=9, workers=3) == monte_carlo(2, 50, 100, seed=9)
    assert _InlineExecutor.sizes == [2]
