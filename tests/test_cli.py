"""Command line interface: exit codes, formats, and structured output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eisenshift import DEFAULT_SEED, cli
from eisenshift.cli import main


def test_check_eisenstein_yes(capsys):
    assert main(["check", "2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "p = 2" in out


def test_check_eisenstein_no(capsys):
    assert main(["check", "5,4,1"]) == 1
    out = capsys.readouterr().out
    assert "not Eisenstein" in out


def test_check_specific_prime(capsys):
    assert main(["check", "3,6,1", "--prime", "3"]) == 0
    assert main(["check", "3,6,1", "--prime", "2"]) == 1
    assert main(["check", "3,6,1", "--prime", "9"]) == 2  # not a prime
    err = capsys.readouterr().err
    assert "error" in err


def test_check_json_record(capsys):
    assert main(["check", "6,6,1", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["eisenstein"] is True
    assert record["primes"] == [2, 3]
    assert record["coeffs"] == [6, 6, 1]


def test_check_bad_poly_is_usage_error(capsys):
    assert main(["check", "1,x,3"]) == 2
    assert "error" in capsys.readouterr().err


def test_shift_yes_with_certificate(capsys):
    assert main(["shift", "5,4,1"]) == 0
    out = capsys.readouterr().out
    assert "YES" in out
    assert "p = 2" in out
    assert "verified" in out


def test_shift_yes_json(capsys):
    assert main(["shift", "2,1,1", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "yes"
    assert record["certificate"] == {"shift": 3, "prime": 7}
    assert record["verified"] is True


def test_shift_certified_no(capsys):
    assert main(["shift", "2,1,0,1"]) == 1
    out = capsys.readouterr().out
    assert "NO (certified)" in out


def test_shift_heuristic_no_and_certified_escalation(capsys):
    args = ["shift", "1,5,1", "--trial-bound", "2", "--rho-iterations", "0"]
    assert main(args) == 3
    out = capsys.readouterr().out
    assert "NO (heuristic)" in out
    assert "cofactor 21" in out
    # escalation factors 21 and finds the certificate
    assert main(args + ["--certified"]) == 0
    out = capsys.readouterr().out
    assert "YES" in out


def test_census_refuses_to_escalate_a_budget_that_cannot_grow(capsys):
    # The first heuristic NO of the box is -2,-1,-2; with both bounds 0 the
    # budget stays the same however often it is scaled.
    args = ["census", "--degree", "2", "--height", "2", "--trial-bound", "0"]
    assert main(args + ["--rho-iterations", "0"]) == 2
    err = capsys.readouterr().err
    assert "could not certify the decision for -2,-1,-2: the budget" in err
    assert "cannot grow" in err


def test_shift_has_no_oracle_switch(capsys):
    # The brute-force scan is the tests' naive_shift_scan, not a CLI mode.
    assert main(["shift", "2,1,1", "--oracle"]) == 2
    assert main(["shift", "2,1,1", "--scan-cap", "100"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_density_text_and_json(capsys):
    assert main(["density", "--degree", "2", "--primes", "500"]) == 0
    out = capsys.readouterr().out
    assert "rho_n" in out
    assert main(["density", "--degree", "3", "--primes", "500", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 3
    assert record["prime_count"] == 500
    assert 0.45 < record["sum_inv_p2"] < 0.46
    assert record["union_bound"] < 1
    assert float(record["rho"]) > 0


def test_density_rejects_degree_one(capsys):
    assert main(["density", "--degree", "1"]) == 2
    capsys.readouterr()


def test_census_fixed_point(capsys, tmp_path):
    csv_path = tmp_path / "runs.csv"
    args = ["census", "--degree", "2", "--height", "2", "--csv", str(csv_path)]
    assert main(args + ["--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["eisenstein"] == 12
    assert record["kind"] == "census"
    assert record["unresolved"] == 0
    text = csv_path.read_text()
    assert text.count("census") == 1
    assert text.splitlines()[0].startswith("kind,")
    # appending keeps a single header
    assert main(args) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the experiment ran before the CSV header was checked")


def test_csv_append_rejects_foreign_header(capsys, tmp_path, monkeypatch):
    # The header is checked before the experiment, which must never start.
    monkeypatch.setattr(cli, "exact_census", _must_not_run)
    monkeypatch.setattr(cli, "monte_carlo", _must_not_run)
    csv_path = tmp_path / "other.csv"
    foreign = "name,value\nx,1\n"
    csv_path.write_text(foreign)
    for args in (
        ["census", "--degree", "2", "--height", "2"],
        ["montecarlo", "--degree", "2", "--height", "10", "--samples", "5", "--seed", "1"],
    ):
        assert main(args + ["--csv", str(csv_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert csv_path.read_text() == foreign


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_csv_unusable_path_is_refused_first(capsys, tmp_path, monkeypatch, where):
    monkeypatch.setattr(cli, "exact_census", _must_not_run)
    monkeypatch.setattr(cli, "monte_carlo", _must_not_run)
    csv_path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    for args in (
        ["census", "--degree", "2", "--height", "2"],
        ["montecarlo", "--degree", "2", "--height", "10", "--samples", "5", "--seed", "1"],
    ):
        assert main(args + ["--csv", str(csv_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_csv_unreadable_file_is_refused_first(capsys, tmp_path, monkeypatch):
    # A mode-000 file, simulated: a root run reads it whatever its mode.
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "exact_census", _must_not_run)
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    csv_path = tmp_path / "locked.csv"
    csv_path.write_text("kind\n")
    assert main(["census", "--degree", "2", "--height", "1", "--csv", str(csv_path)]) == 2
    assert "error: cannot read %s" % csv_path in capsys.readouterr().err
    assert csv_path.read_text() == "kind\n"


def test_csv_append_failure_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # A path that passes the early check can still fail at the append.
    monkeypatch.setattr(cli, "_check_csv", lambda path: None)
    csv_path = tmp_path / "missing" / "x.csv"
    assert main(["census", "--degree", "2", "--height", "2", "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert "census: degree 2, height 2" in captured.out
    assert "error: cannot append to" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_module_runs_as_a_script():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "eisenshift.cli", "shift", "2,1,1"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "YES: f(x + 3) is Eisenstein with respect to p = 7 (verified)\n"


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # Only `monte_carlo` with workers > 1 needs it, and it costs start-up time.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, eisenshift.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_only_the_density_subcommand_loads_mpmath():
    # The decisions are integer arithmetic; only the density constants are mpf.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = """
import contextlib, io, sys
import eisenshift, eisenshift.cli

def run(*args, status=0):
    with contextlib.redirect_stdout(io.StringIO()):
        assert eisenshift.cli.main(list(args)) == status, args

run("check", "5,4,1", status=1)
run("shift", "2,1,1")
run("census", "--degree", "2", "--height", "2")
run("montecarlo", "--degree", "3", "--height", "1000000", "--samples", "256")
print("mpmath" in sys.modules)
run("density", "--degree", "3", "--primes", "100")
print("mpmath" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nTrue\n"


def test_census_cap_error(capsys):
    # 101^3 * 100 = 103 030 100 polynomials, above the fixed cap of 10^8.
    args = ["census", "--degree", "3", "--height", "50"]
    assert main(args) == 2
    assert "exceeds enumeration cap" in capsys.readouterr().err


def test_census_has_no_enumeration_cap_option(capsys):
    assert main(["census", "--degree", "2", "--height", "2", "--enumeration-cap", "5"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_montecarlo_deterministic(capsys):
    args = [
        "montecarlo", "--degree", "2", "--height", "100",
        "--samples", "300", "--seed", "17", "--format", "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["samples"] == 300
    assert record["seed"] == 17


def test_montecarlo_seed_default(capsys):
    args = ["montecarlo", "--degree", "2", "--height", "50", "--samples", "100",
            "--format", "json"]
    assert main(args) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["seed"] == DEFAULT_SEED
    assert main(args + ["--seed", str(DEFAULT_SEED)]) == 0
    assert capsys.readouterr().out == default


def test_montecarlo_text_mentions_ratio(capsys):
    args = ["montecarlo", "--degree", "2", "--height", "100", "--samples", "400",
            "--seed", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "ratio shifted/eisenstein" in out
    assert "95% CI" in out


@pytest.mark.parametrize("command", ["check", "shift", "density", "census", "montecarlo"])
def test_subcommand_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: eisenshift %s " % command)


def test_usage_errors_and_version(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert "eisenshift" in capsys.readouterr().out
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["montecarlo", "--degree", "2"]) == 2  # missing required args
    capsys.readouterr()