"""Census and Monte Carlo tallies against a per-polynomial tally, and the work behind them.

Both experiments make one shifted decision per polynomial and read the
Eisenstein and f columns from it; the tally here asks `is_eisenstein` and the
shifted decision separately for every polynomial the experiment built.  The
Monte Carlo sample stream itself is pinned against the documented scheme.
"""

import random

import pytest

import eisenshift.census as census_module
import eisenshift.eisenstein as eisenstein_module
from eisenshift import (
    DEFAULT_BUDGET,
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
    """Run `experiment()`, returning its report, the polynomials it built and
    its call counts of the Monte Carlo verdict decision and of `shifted_eisenstein`."""
    built = []

    def record(coeffs):
        built.append(IntPoly(coeffs))
        return built[-1]

    monkeypatch.setattr(census_module, "IntPoly", record)
    witness = _Counting(eisenstein_module._smallest_witness)
    monkeypatch.setattr(eisenstein_module, "_smallest_witness", witness)
    verdicts = _Counting(census_module._shifted_verdict)
    monkeypatch.setattr(census_module, "_shifted_verdict", verdicts)
    decisions = _Counting(shifted_eisenstein)
    monkeypatch.setattr(census_module, "shifted_eisenstein", decisions)
    report = experiment()
    monkeypatch.undo()
    # One plain-witness test per decision (escalations included) and one per
    # f(x+1) check, which only Eisenstein polynomials get.
    assert witness.calls == verdicts.calls + decisions.calls + report.eisenstein
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


def _documented_samples(n, height, samples, seed):
    """README's stream: one Random per 256-sample chunk, a_n redrawn until nonzero."""
    polys = []
    for start in range(0, samples, 256):
        rng = random.Random(_splitmix64(seed, start // 256))
        for _ in range(min(256, samples - start)):
            coeffs = [rng.randint(-height, height) for _ in range(n)]
            lead = 0
            while lead == 0:
                lead = rng.randint(-height, height)
            polys.append(IntPoly(tuple(coeffs) + (lead,)))
    return polys


@pytest.mark.parametrize("seed", [7, -1])
@pytest.mark.parametrize("samples", [300, 513])
@pytest.mark.parametrize("n", [2, 4])
def test_monte_carlo_draws_the_documented_sample_stream(monkeypatch, n, samples, seed):
    # 300 and 513 end in a partial chunk; H = 2 makes zero leads common.
    for height in (2, 10**6):
        _, built, _ = _run_recorded(
            monkeypatch, lambda: monte_carlo(n, height, samples, seed=seed)
        )
        assert built == _documented_samples(n, height, samples, seed)


@pytest.mark.parametrize("budget", BUDGETS)
def test_exact_census_matches_per_polynomial_tally(monkeypatch, budget):
    report, built, (verdicts, decisions) = _run_recorded(
        monkeypatch, lambda: exact_census(2, 3, budget)
    )
    # The census keeps certified, escalated decisions.
    assert len(built) == report.samples <= decisions and verdicts == 0
    expected = _tally(built, lambda f: decide_certified(f, budget))
    assert (report.eisenstein, report.shifted, report.f_count, report.unresolved) == expected


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
    monkeypatch.setattr(census_module, "ProcessPoolExecutor", _InlineExecutor)
    _InlineExecutor.sizes.clear()
    serial = monte_carlo(2, 50, 300, seed=9, workers=1)
    assert _InlineExecutor.sizes == []
    assert monte_carlo(2, 50, 300, seed=9, workers=10_000) == serial  # two chunks
    assert monte_carlo(2, 50, 100, seed=9, workers=3) == monte_carlo(2, 50, 100, seed=9)
    assert _InlineExecutor.sizes == [2, 1]
