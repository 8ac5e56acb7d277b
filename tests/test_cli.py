"""Command line interface: exit codes, formats, and structured output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eisenshift.census as census_module
import eisenshift.primes as primes_module
from eisenshift import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    cli,
    density_report,
    first_primes,
    sinh_bound_check,
)
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


@pytest.mark.parametrize("option", ["--trial-bound", "--rho-iterations"])
def test_census_takes_no_budget(capsys, option):
    assert main(["census", "--degree", "2", "--height", "2", option, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage = [line for line in captured.err.splitlines() if line.startswith("usage:")]
    assert len(usage) == 1
    assert "unrecognized arguments: %s 0" % option in captured.err


@pytest.mark.parametrize(
    "args, prog, unknown",
    [
        (
            ["census", "--degree", "2", "--height", "2", "--trial-bound", "0"],
            "eisenshift census",
            "--trial-bound 0",
        ),
        (["shift", "2,1,1", "extra"], "eisenshift shift", "extra"),
        (["density", "--degree", "2", "--bogus"], "eisenshift density", "--bogus"),
        (["--bogus", "shift", "2,1,1"], "eisenshift", "--bogus"),
        # The constants are computed at the library default precision only.
        (
            ["density", "--degree", "3", "--primes", "100", "--dps", "5"],
            "eisenshift density",
            "--dps 5",
        ),
    ],
)
def test_an_unknown_argument_is_refused_with_its_parsers_usage(capsys, args, prog, unknown):
    # An argument after the subcommand is the subcommand's to refuse, with
    # its own usage line; one before it is the top-level parser's.
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: %s [-h]" % prog)
    assert err[-1] == "%s: error: unrecognized arguments: %s" % (prog, unknown)


def test_the_default_trial_bound_factors_every_degree_2_census_discriminant():
    # The largest height whose degree-2 box (2H+1)^2 * 2H the cap admits;
    # there |D| = |a_1^2 - 4 a_0 a_2| <= 5H^2, below (B+1)^2 for the default
    # trial bound B, so no decision could escalate, the census counts and it
    # needs no budget option.
    height = 1
    while (2 * height + 3) ** 2 * (2 * height + 2) <= census_module._ENUMERATION_CAP:
        height += 1
    assert height == 231
    assert 5 * height**2 < (DEFAULT_BUDGET.trial_bound + 1) ** 2


@pytest.mark.parametrize(
    "args",
    [
        ["shift", "2,1,1"],
        ["check", "6,6,1"],
        ["census", "--degree", "2", "--height", "2"],
        ["census", "--degree", "3", "--height", "2"],
        ["montecarlo", "--degree", "3", "--height", "1000000", "--samples", "256", "--seed", "1"],
    ],
)
def test_a_first_command_sieves_no_further_than_its_walks_reach(capsys, fresh_sieve, args):
    # The default trial bound is 10^5, but no number these commands factor
    # needs a prime past the 1000 the table starts with.
    assert main(args) == 0
    assert primes_module._sieve[0] == 1000


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


@pytest.mark.parametrize("n", [2, 4, 10])
@pytest.mark.parametrize("k", [10, 1000])
def test_density_json_is_the_library_report_at_its_default_precision(capsys, n, k):
    assert main(["density", "--degree", str(n), "--primes", str(k), "--format", "json"]) == 0
    primes = first_primes(k)
    partial, union = sinh_bound_check(primes)
    expected = density_report(n, primes).as_record()
    expected.update(sum_inv_p2=float(partial), union_bound=float(union))
    assert json.loads(capsys.readouterr().out) == expected


def test_density_refuses_a_sieve_past_its_cap(capsys, monkeypatch):
    # 10^9 primes need a sieve to 2.4*10^10: exit code 2 and one error line,
    # before the sieve allocates anything.
    def allocate(*args):
        raise AssertionError("the sieve allocated")

    monkeypatch.setattr(primes_module, "bytearray", allocate, raising=False)
    assert main(["density", "--degree", "2", "--primes", "1000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the sieve cap" in err


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
    # Only `monte_carlo` with workers > 1 needs the process pool, and no
    # command needs dataclasses, inspect or typing; each costs start-up time.
    # -S keeps site-packages' .pth hooks, which may import typing, out of it.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    lean = ("concurrent.futures.process", "dataclasses", "inspect", "typing")
    code = "import sys, eisenshift.cli; print(*sorted(set(%r) & set(sys.modules)))" % (lean,)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


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