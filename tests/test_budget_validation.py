"""Factoring budgets reject negative or non-int work bounds, in the library and at the CLI."""

import pytest

from eisenshift import DomainError, FactorBudget, IntPoly, factorize, shifted_eisenstein
from eisenshift.cli import main


@pytest.mark.parametrize("trial_bound, rho_iterations", [(-1, 0), (0, -1), (-7, -3)])
def test_negative_budget_is_rejected(trial_bound, rho_iterations):
    with pytest.raises(DomainError):
        FactorBudget(trial_bound, rho_iterations)


@pytest.mark.parametrize(
    "fields",
    [
        {"trial_bound": 10.5},
        {"trial_bound": True},
        {"rho_iterations": 2.0},
        {"rho_iterations": None},
    ],
)
def test_non_int_budget_is_rejected(fields):
    # A float trial bound used to raise TypeError inside factorize and run
    # shifted_eisenstein silently; True passed as a trial bound of 1.
    with pytest.raises(DomainError):
        factorize(10**12 + 39, FactorBudget(**fields))
    with pytest.raises(DomainError):
        shifted_eisenstein(IntPoly((1, 5, 1)), FactorBudget(**fields))


def test_zero_budget_is_valid():
    budget = FactorBudget(0, 0)
    assert (budget.trial_bound, budget.rho_iterations) == (0, 0)


@pytest.mark.parametrize(
    "args",
    [
        ["census", "--degree", "2", "--height", "2", "--trial-bound", "-7", "--rho-iterations", "-3"],
        ["montecarlo", "--degree", "2", "--height", "10", "--samples", "50", "--seed", "1",
         "--trial-bound", "-1", "--rho-iterations", "-1"],
        ["shift", "1,5,1", "--trial-bound", "-7", "--rho-iterations", "-3"],
        ["check", "2,2,1", "--trial-bound", "-1"],
        ["check", "3,6,1", "--prime", "3", "--trial-bound", "-1"],
    ],
)
def test_cli_negative_budget_is_a_usage_error(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: budget needs" in captured.err
