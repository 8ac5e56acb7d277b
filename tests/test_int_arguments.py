"""Integer arguments refuse floats and bools with DomainError, never a result or a traceback."""

import pytest

from eisenshift import (
    DomainError,
    IntPoly,
    density_report,
    euler_phi,
    factorize,
    first_primes,
    is_eisenstein_with,
    is_prime,
    iroot,
    mobius,
    predicted_eisenstein_count,
    sieve_primes,
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
        lambda: euler_phi(2.0),  # was 1.0
        lambda: mobius(6.0),
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
    ],
)
def test_non_int_argument_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
