"""Fixtures shared by the test modules."""

import pytest

import eisenshift.primes as primes_module


@pytest.fixture
def fresh_sieve(monkeypatch):
    """Start the cached prime table over at the primes below 1000."""
    monkeypatch.setattr(primes_module, "_sieve", primes_module._sieve_table(1000))
