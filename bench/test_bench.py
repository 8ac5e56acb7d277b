"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted on every
workload, that the replayed Monte Carlo stream tallies exactly as
`monte_carlo` reports, that census budget escalations are replayed and
traced, that the span accounting closes, and that the benchmark refuses to
run without the package sources.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CHUNK,
    ESCALATION_BUDGET,
    CensusBox,
    Checks,
    DensityTable,
    MonteCarlo,
    box_stream,
    mc_stream,
    replay,
)

import eisenshift.census as census  # noqa: E402
from eisenshift.primes import DEFAULT_BUDGET  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Tiny stand-ins for the four workloads; the density table needs its full
# prime list for its reference checks.
TINY = {
    "mc-quartic": lambda: MonteCarlo(4, calls=2, samples=2 * CHUNK, pool_samples=2 * CHUNK),
    "mc-quadratic": lambda: MonteCarlo(2, calls=1, samples=64, pool_samples=0),
    "census-box": lambda: CensusBox([(2, 2, DEFAULT_BUDGET), (2, 2, ESCALATION_BUDGET)]),
    "density-table": lambda: DensityTable(10_000),
}


@pytest.fixture(autouse=True)
def one_repeat(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PAIRS", 1)


def test_workload_names_match_spec():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted(name):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload=name, seed=3, seconds=0, trace=trace)
        checks = Checks()
        if trace:
            values = run.measure_layers(TINY[name](), args, checks, {}, units)
        else:
            values = run.measure_end_to_end(TINY[name](), args, checks, {})
        assert sorted(values) == sorted(m["name"] for m in SPEC[section])
        assert all(isinstance(v, (int, float)) for v in values.values())
        assert checks.failed == 0, checks.failures
        if not trace:
            assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("n, samples, seed", [(2, 100, 1), (3, 300, 7), (4, 2 * CHUNK + 5, 11)])
def test_replay_tallies_match_monte_carlo(n, samples, seed):
    report = census.monte_carlo(n, 10**6, samples, seed=seed)
    checks = Checks()
    latencies, tally, _ = replay(mc_stream(n, 10**6, samples, seed), checks, "test")
    assert len(latencies) == samples
    assert tally == (report.eisenstein, report.shifted, report.f_count, report.unresolved)
    assert checks.failed == 0, checks.failures


def test_escalations_are_traced_and_replayed():
    checks = Checks()
    latencies, tally, escalations = replay(box_stream(2, 2), checks, "test", ESCALATION_BUDGET)
    assert escalations > 0 and checks.failed == 0, checks.failures
    with Tracer() as tracer:
        report = census.exact_census(2, 2, ESCALATION_BUDGET)
    assert tally[:3] == (report.eisenstein, report.shifted, report.f_count)
    layer = tracer.summarize()
    assert layer["census.escalations"] == escalations
    assert layer["eisenstein.no_heuristic"] == escalations
    assert layer["primes.factorize_uncertified"] > 0


def test_span_self_times_cover_the_traced_wall_time():
    workload = TINY["mc-quartic"]()
    with Tracer() as tracer:
        for arg in workload.calls(5):
            workload.call(arg)
    selfs = tracer.self_times()
    assert sum(selfs) == tracer.wall_ns()
    assert all(t >= 0 for t in selfs)
    names = {span[0] for span in tracer.spans}
    assert {"census.monte_carlo", "eisenstein.shifted_eisenstein", "algebra.discriminant"} <= names
    # The wrappers are gone once the tracer exits.
    assert census.shifted_eisenstein.__module__ == "eisenshift.eisenstein"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-quartic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
