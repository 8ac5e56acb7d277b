"""Integer arguments refuse floats and bools, and budget arguments anything but a
FactorBudget, with DomainError, never a result or a traceback."""

import pytest

from eisenshift import (
    DomainError,
    IntPoly,
    decide_certified,
    density_report,
    derivative,
    eisenstein_primes,
    exact_census,
    factorize,
    first_primes,
    is_eisenstein_with,
    is_prime,
    iroot,
    monte_carlo,
    predicted_eisenstein_count,
    principal_subresultant,
    shifted_eisenstein,
    sieve_primes,
    taylor_shift,
    wilson_interval,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: factorize(12.0),  # was a certified Factorization of 3.0
        lambda: is_prime(7.0),  # was True
        lambda: is_prime(2**61 - 1.0),  # was False
        lambda: is_prime(True),
        lambda: is_eisenstein_with(IntPoly((2, 2, 1)), 2.0),  # was True
        lambda: iroot(8.0, 3),
        lambda: iroot(8, 3.0),
        lambda: first_primes(2.5),
        lambda: sieve_primes(10.5),
        lambda: density_report(3, [2.0, 3.0]),  # was AttributeError
        lambda: density_report(3, [2, 3, 5.0]),
        lambda: density_report(3, ["2", "3"]),
        lambda: predicted_eisenstein_count(2, 1.5, [2, 3]),
        lambda: wilson_interval(1.5, 3),
        lambda: wilson_interval(1, 3.0),
        lambda: monte_carlo(2, 10, 5, budget=None),  # was AttributeError
        lambda: exact_census(2, 1, budget=(2, 1)),  # was AttributeError
        lambda: shifted_eisenstein(IntPoly((5, 4, 1)), None),  # was AttributeError
        lambda: shifted_eisenstein(IntPoly((2, 2, 1)), None),  # was a YES, by plain witness
        lambda: decide_certified(IntPoly((5, 4, 1)), 5),  # was AttributeError
        lambda: eisenstein_primes(IntPoly((6, 6, 1)), None),  # was AttributeError
        lambda: eisenstein_primes(IntPoly((5, 4, 1)), None),  # was []: coefficient gcd 1
        lambda: factorize(12, (2, 1)),  # was AttributeError
        lambda: taylor_shift(IntPoly((5, 4, 1)), True),  # was f(x+1)
        lambda: taylor_shift(IntPoly((5, 4, 1)), 1.5),  # was refused only by IntPoly
        lambda: principal_subresultant(
            IntPoly((1, 2, 1)), derivative(IntPoly((1, 2, 1))), 1.0
        ),  # was TypeError
        lambda: principal_subresultant(
            IntPoly((1, 2, 1)), derivative(IntPoly((1, 2, 1))), True
        ),  # was 2, as j = 1
    ],
)
def test_non_int_argument_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
