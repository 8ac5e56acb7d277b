"""Command line interface.

Subcommands:
  check       Eisenstein test for a polynomial (all witnesses or one prime).
  shift       shifted-Eisenstein decision with a checkable certificate.
  density     density constants P_n, rho_n, tau_n, gamma_n for a degree.
  census      exact counts over a height-bounded coefficient box.
  montecarlo  seeded random sampling from a coefficient box.

Exit codes: 0 success (or YES), 1 certified NO (or "not Eisenstein" for
check), 2 usage/domain/budget error, 3 heuristic NO (shift only: the
factorization budget ran out before the decision could be certified).

Polynomials are written as comma-separated coefficients from the constant
term up, e.g. "5,4,1" for x^2 + 4x + 5.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .census import DEFAULT_SEED, exact_census, monte_carlo, reports_to_csv
from .density import DEFAULT_DPS, density_report, sinh_bound_check
from .eisenstein import (
    Verdict,
    decide_certified,
    eisenstein_primes,
    is_eisenstein_with,
    shifted_eisenstein,
    verify_certificate,
)
from .errors import BudgetError, DomainError
from .intpoly import parse_poly
from .primes import DEFAULT_BUDGET, FactorBudget, first_primes

from . import __version__

__all__ = ["build_parser", "main", "entry"]


def _add_shared_args(sub: argparse.ArgumentParser, handler, factors: bool = True) -> None:
    """Give a subcommand its handler and the options it shares with the others:
    the factoring budget if it `factors` integers, and --format.  Called after
    the subcommand's own arguments, so that --help lists those first."""
    sub.set_defaults(handler=handler)
    if factors:
        sub.add_argument(
            "--trial-bound",
            type=int,
            default=DEFAULT_BUDGET.trial_bound,
            help="trial division bound for factorizations (default %(default)s)",
        )
        sub.add_argument(
            "--rho-iterations",
            type=int,
            default=DEFAULT_BUDGET.rho_iterations,
            help="iteration budget for the rho factoring stage (default %(default)s)",
        )
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisenshift",
        description="Eisenstein and shifted-Eisenstein irreducibility tools.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser(
        "check", help="test the Eisenstein criterion for a polynomial"
    )
    shift = subs.add_parser(
        "shift", help="decide whether some shift f(x+s) is Eisenstein"
    )
    for sub in (check, shift):
        sub.add_argument("poly", help="coefficients, constant term first: '5,4,1'")
    check.add_argument(
        "--prime", type=int, default=None, help="test one specific prime only"
    )
    _add_shared_args(check, _cmd_check)
    shift.add_argument(
        "--certified",
        action="store_true",
        help="retry with growing budgets until the answer is certified",
    )
    _add_shared_args(shift, _cmd_shift)

    density = subs.add_parser(
        "density", help="density constants for random polynomials of one degree"
    )
    census = subs.add_parser(
        "census", help="exact counts over the box |a_i| <= H, a_n != 0"
    )
    mc = subs.add_parser(
        "montecarlo", help="classify uniform random samples from a box"
    )
    for sub in (density, census, mc):
        sub.add_argument("--degree", type=int, required=True, help="degree n >= 2")
    density.add_argument(
        "--primes",
        type=int,
        default=10_000,
        help="number of primes in the truncated Euler products (default 10000)",
    )
    density.add_argument(
        "--dps", type=int, default=DEFAULT_DPS, help="significant digits of the constants"
    )
    _add_shared_args(density, _cmd_density, factors=False)
    for sub in (census, mc):
        sub.add_argument("--height", type=int, required=True, help="height bound H")
    mc.add_argument("--samples", type=int, required=True, help="number of samples")
    mc.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="RNG seed (default %(default)s)",
    )
    mc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (at most one per CPU and per 256-sample chunk)",
    )
    for sub in (census, mc):
        sub.add_argument("--csv", default=None, help="also append a CSV row to this file")
        _add_shared_args(sub, _cmd_experiment)

    return parser


def _budget(args: argparse.Namespace) -> FactorBudget:
    return FactorBudget(trial_bound=args.trial_bound, rho_iterations=args.rho_iterations)


def _emit(args: argparse.Namespace, record: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _check_csv(path: str) -> None:
    """Refuse a CSV path that cannot be a file in an existing directory, or a
    non-empty file whose first line is not our header."""
    if os.path.isdir(path):
        raise DomainError("%s is a directory, not a CSV file" % path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise DomainError("directory %s of the CSV file does not exist" % parent)
    if os.path.exists(path) and os.path.getsize(path) > 0:
        header = reports_to_csv([]).rstrip("\n")
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                first = handle.readline().rstrip("\r\n")
        except OSError as exc:
            raise DomainError("cannot read %s: %s" % (path, exc)) from None
        if first != header:
            raise DomainError(
                "%s does not start with the CSV header %s" % (path, header)
            )


def _write_csv(path: str, report) -> None:
    """Append one report row; `_check_csv` has vetted an existing file."""
    text = reports_to_csv([report])
    if os.path.exists(path) and os.path.getsize(path) > 0:
        text = text.split("\n", 1)[1]  # keep one header per file
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError("cannot append to %s: %s" % (path, exc)) from None


def _cmd_check(args: argparse.Namespace) -> int:
    f, budget = parse_poly(args.poly), _budget(args)
    record = {"poly": str(f), "coeffs": list(f.coeffs)}
    if args.prime is None:
        witnesses = record["primes"] = eisenstein_primes(f, budget)
        where = "p = %s" % ", ".join(str(p) for p in witnesses) if witnesses else "any prime"
    else:
        witnesses = [args.prime] if is_eisenstein_with(f, args.prime) else []
        record["prime"] = args.prime
        where = "p = %d" % args.prime
    ok = record["eisenstein"] = bool(witnesses)
    verb = "is" if ok else "is not"
    _emit(args, record, ["%s %s Eisenstein with respect to %s" % (f, verb, where)])
    return 0 if ok else 1


def _cmd_shift(args: argparse.Namespace) -> int:
    f = parse_poly(args.poly)
    decide = decide_certified if args.certified else shifted_eisenstein
    decision = decide(f, _budget(args))
    record = {
        "poly": str(f),
        "coeffs": list(f.coeffs),
        "verdict": decision.verdict.value,
        "certificate": None,
        "reason": decision.reason,
        "cofactor": decision.cofactor,
        "verified": None,
    }
    if decision.verdict is Verdict.YES:
        cert = decision.certificate
        verified = verify_certificate(f, cert)
        record["certificate"] = {"shift": cert.shift, "prime": cert.prime}
        record["verified"] = verified
        flag = "verified" if verified else "VERIFICATION FAILED"
        lines = [
            "YES: f(x + %d) is Eisenstein with respect to p = %d (%s)"
            % (cert.shift, cert.prime, flag)
        ]
        code = 0 if verified else 2
    elif decision.verdict is Verdict.NO_CERTIFIED:
        lines = ["NO (certified): %s" % decision.reason]
        code = 1
    else:
        lines = [
            "NO (heuristic): %s; unfactored cofactor %d"
            % (decision.reason, decision.cofactor),
            "rerun with --certified or a larger --rho-iterations to settle it",
        ]
        code = 3
    _emit(args, record, lines)
    return code


def _cmd_density(args: argparse.Namespace) -> int:
    primes = first_primes(args.primes)
    report = density_report(args.degree, primes, dps=args.dps)
    record = report.as_record()
    partial, union = sinh_bound_check(primes, dps=args.dps)
    record["sum_inv_p2"] = float(partial)
    record["union_bound"] = float(union)
    lines = [
        "degree n = %d, first %d primes (largest %d)"
        % (report.n, report.prime_count, report.largest_prime),
        "P_n    = %s  (truncation tail < %s)"
        % (record["p_n"], record["p_n_tail"]),
        "rho_n  = %s" % record["rho"],
        "tau_n  = %s" % record["tau"],
        "gamma_n = %s" % record["gamma"],
        "sum 1/p^2 (with tail) = %.6f, union bound 2*sinh = %.6f"
        % (record["sum_inv_p2"], record["union_bound"]),
    ]
    _emit(args, record, lines)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """census and montecarlo: one report, printed, then appended to the CSV file."""
    if args.csv:
        _check_csv(args.csv)
    montecarlo = args.command == "montecarlo"
    if montecarlo:
        report = monte_carlo(
            args.degree,
            args.height,
            args.samples,
            seed=args.seed,
            budget=_budget(args),
            workers=args.workers,
        )
        sampled = "samples, seed %d" % report.seed
    else:
        report = exact_census(args.degree, args.height, budget=_budget(args))
        sampled = "polynomials"
    lines = [
        "%s: degree %d, height %d, %d %s"
        % (report.kind, report.n, report.height, report.samples, sampled),
        "eisenstein          : %d" % report.eisenstein,
        "shifted eisenstein  : %d" % report.shifted,
        "eisenstein at 0 and 1: %d" % report.f_count,
    ]
    if montecarlo:  # a census certifies every decision
        lines.append("unresolved          : %d" % report.unresolved)
    if report.ratio is not None:
        if montecarlo:
            ratio = "%.4f  (95%% CI [%.4f, %.4f])" % (
                report.ratio, report.ci_low, report.ci_high
            )
        else:
            ratio = "%.6f" % report.ratio
        lines.append("ratio shifted/eisenstein = %s" % ratio)
    _emit(args, report.as_record(), lines)  # before the append, so a failed append loses no result
    if args.csv:
        _write_csv(args.csv, report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help/--version/usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (DomainError, BudgetError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()