"""Factoring budgets reject negative work bounds, in the library and at the CLI."""

import pytest

from eisenshift import DomainError, FactorBudget
from eisenshift.cli import main


@pytest.mark.parametrize("trial_bound, rho_iterations", [(-1, 0), (0, -1), (-7, -3)])
def test_negative_budget_is_rejected(trial_bound, rho_iterations):
    with pytest.raises(DomainError):
        FactorBudget(trial_bound, rho_iterations)


def test_zero_budget_is_valid():
    budget = FactorBudget(0, 0, False)
    assert (budget.trial_bound, budget.rho_iterations) == (0, 0)


@pytest.mark.parametrize(
    "args",
    [
        ["census", "--degree", "2", "--height", "2", "--trial-bound", "-7", "--rho-iterations", "-3"],
        ["montecarlo", "--degree", "2", "--height", "10", "--samples", "50", "--seed", "1",
         "--trial-bound", "-1", "--rho-iterations", "-1"],
        ["shift", "1,5,1", "--trial-bound", "-7", "--rho-iterations", "-3"],
        ["check", "2,2,1", "--trial-bound", "-1"],
    ],
)
def test_cli_negative_budget_is_a_usage_error(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: budget needs" in captured.err
