"""Exact censuses, the d-local box count, and Monte Carlo determinism."""

import concurrent.futures
import json
import math
import random
from dataclasses import fields
from itertools import product

import pytest

from eisenshift import (
    BudgetError,
    DomainError,
    FactorBudget,
    IntPoly,
    census_h_subset,
    eisenstein_primes,
    exact_census,
    h_subset_main_term,
    is_eisenstein,
    monte_carlo,
    reports_to_csv,
    taylor_shift,
    wilson_interval,
)
import eisenshift.census as census_module
from eisenshift.census import CSV_COLUMNS, ExperimentReport

from shift_scan import naive_shift_scan


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.45
    assert 0.55 < hi < 0.60
    assert abs((lo + hi) / 2 - 0.5) < 1e-9  # symmetric at p-hat = 1/2
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0
    assert hi0 > 0
    lo1, hi1 = wilson_interval(50, 50)
    assert hi1 == 1.0
    assert lo1 < 1
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(7, 3)


def test_wilson_interval_covers_proportion():
    rng = random.Random(70)
    for _ in range(200):
        n = rng.randrange(10, 500)
        k = rng.randrange(0, n + 1)
        lo, hi = wilson_interval(k, n)
        assert 0 <= lo <= k / n <= hi <= 1


def _direct_eisenstein(coeffs):
    """Independent Eisenstein check: trial conditions over every p <= |a0|."""
    a0 = coeffs[0]
    if a0 == 0:
        return False
    for p in range(2, abs(a0) + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        if all(c % p == 0 for c in coeffs[:-1]) and a0 % (p * p) and coeffs[-1] % p:
            return True
    return False


def test_exact_census_degree2_small_heights():
    r1 = exact_census(2, 1)
    assert (r1.eisenstein, r1.f_count) == (0, 0)
    assert r1.samples == 3 * 3 * 2
    assert r1.unresolved == 0
    assert r1.ratio is None

    r2 = exact_census(2, 2)
    assert r2.eisenstein == 12
    assert r2.samples == 5 * 5 * 4
    assert r2.unresolved == 0
    assert r2.shifted >= r2.eisenstein >= r2.f_count

    # independent recount of the Eisenstein column
    direct = sum(
        1
        for a0 in range(-2, 3)
        for a1 in range(-2, 3)
        for a2 in (-2, -1, 1, 2)
        if _direct_eisenstein((a0, a1, a2))
    )
    assert direct == r2.eisenstein == 12


def _scan_box(n, height):
    """Classify every degree-n polynomial of height <= `height` by brute scan.

    Returns (poly_height, scan_says_shifted, is_plain_eisenstein) triples.
    """
    rows = []
    for coeffs in product(range(-height, height + 1), repeat=n + 1):
        if coeffs[-1] == 0:
            continue
        f = IntPoly(coeffs)
        rows.append(
            (
                max(abs(c) for c in coeffs),
                naive_shift_scan(f).verdict.value == "yes",
                is_eisenstein(f),
            )
        )
    return rows


def test_exact_census_columns_match_scan_oracle_exhaustively():
    # Every census column must equal a per-polynomial recount by the
    # independent brute-force scan, cumulatively for each height cutoff.
    rows2 = _scan_box(2, 6)
    for cutoff in range(1, 7):
        report = exact_census(2, cutoff)
        assert report.shifted == sum(1 for h, s, _ in rows2 if h <= cutoff and s)
        assert report.eisenstein == sum(1 for h, _, e in rows2 if h <= cutoff and e)

    rows3 = _scan_box(3, 3)
    for cutoff in range(1, 4):
        report = exact_census(3, cutoff)
        assert report.shifted == sum(1 for h, s, _ in rows3 if h <= cutoff and s)
        assert report.eisenstein == sum(1 for h, _, e in rows3 if h <= cutoff and e)


def test_monte_carlo_subsampling_covers_census_proportions():
    # Sampling from the same box the census enumerates must be unbiased:
    # the exact proportions should fall inside the per-run 95% Wilson
    # intervals for the vast majority of seeds.
    truth = exact_census(2, 6)
    p_eis = truth.eisenstein / truth.samples
    p_shifted = truth.shifted / truth.samples
    covered = 0
    for seed in range(11, 21):
        r = monte_carlo(2, 6, 10_000, seed=seed)
        lo_e, hi_e = wilson_interval(r.eisenstein, r.samples)
        lo_s, hi_s = wilson_interval(r.shifted, r.samples)
        covered += (lo_e <= p_eis <= hi_e) and (lo_s <= p_shifted <= hi_s)
    assert covered >= 9


def test_f_subset_witness_primes_are_disjoint():
    # For every polynomial counted by f_count (Eisenstein, and still
    # Eisenstein after the shift x -> x+1), the witness primes before and
    # after the shift can never coincide: shifting by 1 turns the constant
    # term into f(1), which the original witness cannot divide.
    members = 0
    for coeffs in product(range(-6, 7), repeat=3):
        if coeffs[-1] == 0:
            continue
        f = IntPoly(coeffs)
        if not is_eisenstein(f):
            continue
        g = taylor_shift(f, 1)
        if not is_eisenstein(g):
            continue
        members += 1
        assert not set(eisenstein_primes(f)) & set(eisenstein_primes(g))
    assert members == exact_census(2, 6).f_count
    assert members > 0


def test_exact_census_rejects_bad_arguments():
    with pytest.raises(DomainError):
        exact_census(1, 3)
    with pytest.raises(DomainError):
        exact_census(2, 0)
    with pytest.raises(BudgetError, match="exceeds enumeration cap"):
        exact_census(2, 300)  # 601^2 * 600 = 216 721 200 polynomials


def _brute_h_subset(n, d, height):
    count = 0
    for coeffs in product(range(-height, height + 1), repeat=n + 1):
        if coeffs[-1] == 0:
            continue
        if any(c % d for c in coeffs[:-1]):
            continue
        if math.gcd(coeffs[0] // d, d) != 1:
            continue
        if math.gcd(coeffs[-1], d) != 1:
            continue
        count += 1
    return count


def test_census_h_subset_fixed_point():
    assert census_h_subset(2, 2, 2) == 12


def test_census_h_subset_matches_brute_force():
    for n, d, height in [(2, 1, 3), (2, 2, 5), (2, 3, 7), (3, 2, 4), (2, 6, 6), (3, 5, 5)]:
        assert census_h_subset(n, d, height) == _brute_h_subset(n, d, height)


def test_census_h_subset_rejects_non_squarefree():
    with pytest.raises(DomainError):
        census_h_subset(2, 4, 10)
    with pytest.raises(DomainError):
        census_h_subset(2, 12, 10)
    with pytest.raises(DomainError):
        census_h_subset(2, 0, 10)
    with pytest.raises(DomainError):
        census_h_subset(1, 2, 10)


def test_h_subset_main_term_accuracy():
    exact = census_h_subset(2, 2, 50)
    main = h_subset_main_term(2, 2, 50)
    assert abs(exact - main) / exact < 0.10


def test_monte_carlo_reproducible():
    a = monte_carlo(2, 100, 500, seed=11)
    b = monte_carlo(2, 100, 500, seed=11)
    assert a == b
    c = monte_carlo(2, 100, 500, seed=12)
    assert (a.eisenstein, a.shifted) != (c.eisenstein, c.shifted) or a != c


def test_monte_carlo_chunking_invariant():
    # the fixed 256-sample chunks are part of the substream definition, so a
    # sample count that ends in a partial chunk still reproduces exactly
    a = monte_carlo(2, 50, 300, seed=9)
    b = monte_carlo(2, 50, 300, seed=9)
    assert a == b
    assert a.samples == 300


def test_monte_carlo_worker_counts_agree():
    base = monte_carlo(2, 100, 512, seed=21, workers=1)
    two = monte_carlo(2, 100, 512, seed=21, workers=2)
    four = monte_carlo(2, 100, 512, seed=21, workers=4)
    assert base == two == four
    assert json.dumps(base.as_record(), sort_keys=True) == json.dumps(
        two.as_record(), sort_keys=True
    )


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "cpus, workers, size",
    [
        (2, 10**5, 2),  # 16 chunks, capped by the CPU count
        (64, 10**5, 16),  # capped by the chunk count
        (8, 3, 3),
        (None, 10**5, 1),  # an unknown CPU count counts as one
    ],
)
def test_monte_carlo_pool_is_bounded(monkeypatch, cpus, workers, size):
    # No process is started: the pool is a fake and the CPU count is pinned.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(census_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    report = monte_carlo(2, 10, 4096, seed=4, workers=workers)
    assert _InProcessPool.sizes == [size]
    assert report == monte_carlo(2, 10, 4096, seed=4)


def test_monte_carlo_counts_are_consistent():
    r = monte_carlo(3, 1000, 400, seed=3)
    assert 0 <= r.f_count <= r.eisenstein <= r.shifted <= r.samples
    assert r.unresolved >= 0
    assert r.kind == "montecarlo"
    if r.eisenstein:
        assert r.ci_low <= r.ratio <= r.ci_high


def test_monte_carlo_unresolved_under_tiny_budget():
    tiny = FactorBudget(trial_bound=2, rho_iterations=0)
    r = monte_carlo(2, 10**6, 300, seed=5, budget=tiny)
    assert r.unresolved > 0  # discriminants with a square part above 2 fall back
    # Every cubic here has G' below 3^5, so trial division to 2 decides it.
    assert monte_carlo(3, 10, 600, seed=1, budget=tiny).unresolved == 0


def test_monte_carlo_rejects_bad_arguments():
    with pytest.raises(DomainError):
        monte_carlo(1, 10, 10)
    with pytest.raises(DomainError):
        monte_carlo(2, 0, 10)
    with pytest.raises(DomainError):
        monte_carlo(2, 10, 0)
    with pytest.raises(DomainError):
        monte_carlo(2, 10, 10, workers=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_census(2, 1.5),
        lambda: exact_census(2.0, 1),
        lambda: exact_census(True, 1),
        lambda: census_h_subset(2, 2, 2.0),
        lambda: census_h_subset(2, 2.0, 2),
        lambda: h_subset_main_term(2, 2, 50.0),
        lambda: h_subset_main_term(2, 4, 50),
        lambda: monte_carlo(2, 10.5, 5),
        lambda: monte_carlo(2, 10, 5.0),
        lambda: monte_carlo(2, 10, 5, seed=1.5),
        lambda: monte_carlo(2, 10, 5, seed=True),
        lambda: monte_carlo(2, 10, 5, workers=2.0),
        lambda: monte_carlo(2, True, 5),
    ],
)
def test_box_arguments_must_be_ints(call):
    # exact_census(2, 1.5) and monte_carlo(..., seed=1.5) used to raise
    # TypeError, monte_carlo(2, 10.5, 5) ValueError.
    with pytest.raises(DomainError):
        call()


def test_csv_round_trip():
    report = monte_carlo(2, 50, 200, seed=4)
    census = exact_census(2, 1)
    text = reports_to_csv([report, census])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    mc_row = lines[1].split(",")
    assert mc_row[0] == "montecarlo"
    assert int(mc_row[3]) == 200
    assert int(mc_row[10]) == 4
    census_row = lines[2].split(",")
    assert census_row[0] == "census"
    assert census_row[7] == ""  # no ratio when eisenstein count is 0
    assert census_row[10] == ""  # censuses have no seed

# JSON records and CSV rows recorded when the ratio and its interval were
# stored fields; deriving them from the counts must not change a byte.
PINNED_RECORDS = (
    '{"H": 1000000, "ci_high": 7.2844964676341935, "ci_low": 2.1444605350762345, '
    '"eisenstein": 21, "f_count": 0, "kind": "montecarlo", "n": 3, "ratio": 3.9523809523809526, '
    '"samples": 513, "seed": 7, "shifted": 83, "unresolved": 0}',
    '{"H": 1000000, "ci_high": 2.37073584435623, "ci_low": 1.0097010304884115, '
    '"eisenstein": 53, "f_count": 7, "kind": "montecarlo", "n": 2, "ratio": 1.5471698113207548, '
    '"samples": 300, "seed": 5, "shifted": 82, "unresolved": 218}',
    '{"H": 2, "ci_high": null, "ci_low": null, "eisenstein": 12, "f_count": 2, '
    '"kind": "census", "n": 2, "ratio": 4.5, "samples": 100, "seed": null, "shifted": 54, '
    '"unresolved": 0}',
)
PINNED_CSV = (
    "kind,n,H,samples,eisenstein,shifted,f_count,ratio,ci_low,ci_high,seed,unresolved\n"
    "montecarlo,3,1000000,513,21,83,0,3.9523809523809526,2.1444605350762345,7.2844964676341935,7,0\n"
    "montecarlo,2,1000000,300,53,82,7,1.5471698113207548,1.0097010304884115,2.37073584435623,5,218\n"
    "census,2,2,100,12,54,2,4.5,,,,0\n"
)


def test_report_records_and_csv_are_pinned():
    reports = [
        monte_carlo(3, 10**6, 513, seed=7),
        monte_carlo(2, 10**6, 300, seed=5, budget=FactorBudget(2, 0)),
        exact_census(2, 2),
    ]
    for report, pinned in zip(reports, PINNED_RECORDS):
        assert json.dumps(report.as_record(), sort_keys=True) == pinned
    assert reports_to_csv(reports) == PINNED_CSV


# Reports recorded when `_local_gcd` built every h_j by Horner's rule.  At
# height 30, G > 1 is common, so these runs take its every exit: gcd(c, d) = 1,
# the strip of u's primes before the rows, the rows (n >= 5), and h_0 = a_3*d.
PINNED_LOCAL_GCD_RECORDS = {
    3: '{"H": 30, "ci_high": 3.3274456222753224, "ci_low": 1.9653325900268395, '
    '"eisenstein": 131, "f_count": 6, "kind": "montecarlo", "n": 3, "ratio": 2.5572519083969465, '
    '"samples": 2048, "seed": 1, "shifted": 335, "unresolved": 0}',
    5: '{"H": 30, "ci_high": 3.960373969848689, "ci_low": 1.1594452366500418, '
    '"eisenstein": 28, "f_count": 0, "kind": "montecarlo", "n": 5, "ratio": 2.142857142857143, '
    '"samples": 2048, "seed": 1, "shifted": 60, "unresolved": 0}',
    6: '{"H": 30, "ci_high": 4.263202576235554, "ci_low": 0.6893351788126958, '
    '"eisenstein": 14, "f_count": 0, "kind": "montecarlo", "n": 6, "ratio": 1.7142857142857142, '
    '"samples": 2048, "seed": 1, "shifted": 24, "unresolved": 0}',
}


@pytest.mark.parametrize("n", sorted(PINNED_LOCAL_GCD_RECORDS))
def test_monte_carlo_records_through_the_local_gcd_are_pinned(n):
    report = monte_carlo(n, 30, 2048, seed=1)
    assert json.dumps(report.as_record(), sort_keys=True) == PINNED_LOCAL_GCD_RECORDS[n]


def test_report_stores_counts_and_derives_the_ratio():
    assert [f.name for f in fields(ExperimentReport)] == [
        "kind", "n", "height", "samples", "eisenstein", "shifted", "f_count", "unresolved", "seed",
    ]
    census = ExperimentReport("census", 2, 2, 100, 12, 54, 2, 0, None)
    assert (census.ratio, census.ci_low, census.ci_high) == (4.5, None, None)
    empty = ExperimentReport("montecarlo", 2, 9, 10, 0, 3, 0, 0, 1)
    assert (empty.ratio, empty.ci_low, empty.ci_high) == (None, None, None)
    with pytest.raises(AttributeError):
        census.ratio = 1.0
