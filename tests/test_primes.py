"""Sieving, primality, budgeted factorization, and roots modulo p."""

import itertools
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eisenshift.primes as primes_module
from eisenshift import (
    BudgetError,
    DomainError,
    FactorBudget,
    Factorization,
    IntPoly,
    factorize,
    first_primes,
    is_prime,
    roots_mod_p,
    shifted_eisenstein,
    sieve_primes,
)
from eisenshift.primes import iroot

from d_local import euler_phi, mobius
from factor_first import trial_factorize
from local_rule import newton_iroot

_PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


def test_sieve_primes_small():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(100) == _PRIMES_BELOW_100


def test_sieve_primes_pi_of_million():
    assert len(sieve_primes(10**6)) == 78498


def test_sieve_refuses_a_limit_past_its_cap_before_allocating(monkeypatch, fresh_sieve):
    # The sieve takes a byte per number; first_primes(10^9) would sieve to
    # 23 754 522 869.
    def allocate(*args):
        raise AssertionError("the sieve allocated")

    monkeypatch.setattr(primes_module, "bytearray", allocate, raising=False)
    for call in (lambda: sieve_primes(10**8 + 1), lambda: first_primes(10**9)):
        with pytest.raises(BudgetError, match="exceeds the sieve cap 100000000"):
            call()
    assert primes_module._sieve[0] == 1000


def test_prime_products_stop_at_the_cache_cap(fresh_sieve):
    assert primes_module._prime_product(primes_module._SIEVE_CACHE_CAP + 1) is None
    assert primes_module._sieve[0] == 1000


def test_first_primes():
    assert first_primes(0) == []
    assert first_primes(5) == [2, 3, 5, 7, 11]
    tenk = first_primes(10000)
    assert len(tenk) == 10000
    assert tenk[-1] == 104729
    assert tenk == sieve_primes(104729)
    with pytest.raises(DomainError):
        first_primes(-1)


def test_first_primes_returns_a_fresh_list(fresh_sieve):
    # first_primes reads the sieve that trial division keeps; changing its
    # result must reach neither the next call nor a factorization.
    for count in (5, 200, 10_000):
        primes = first_primes(count)
        primes[0] = 9
        primes.append(4)
        assert first_primes(count) == sieve_primes(104729)[:count]
    assert factorize(2 * 3 * 104723) == trial_factorize(2 * 3 * 104723, FactorBudget())


def test_factorize_is_unchanged_when_first_primes_grows_the_cache(fresh_sieve):
    # The default trial bound of 10^5 sieves to 10^5; first_primes(10^4)
    # then grows the cache to cover p_10000 = 104729, so trial division
    # stops inside the cache.  Without rho iterations, primes just above
    # 10^5 must stay in the cofactor.
    rng = random.Random(72)
    candidates = sieve_primes(110_000)[-1500:]  # 98 000 < p < 110 000
    numbers = [
        math.prod(rng.choice(candidates) ** rng.randrange(1, 3) for _ in range(rng.randrange(1, 4)))
        * rng.randrange(1, 10**6)
        for _ in range(300)
    ]
    budgets = (FactorBudget(), FactorBudget(trial_bound=100_000, rho_iterations=0))
    before = [factorize(n, budget) for n in numbers for budget in budgets]
    assert primes_module._sieve[0] == 100_000
    first_primes(10**4)
    assert primes_module._sieve[0] > 104729
    after = [factorize(n, budget) for n in numbers for budget in budgets]
    assert after == before
    assert before == [trial_factorize(n, budget) for n in numbers for budget in budgets]


def test_is_prime_against_sieve():
    table = set(sieve_primes(20000))
    for n in range(20000):
        assert is_prime(n) == (n in table)


def test_is_prime_larger_cases():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1105)
    assert not is_prime(2047)  # strong pseudoprime base 2
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


# (psi, k): psi is the smallest strong pseudoprime to the first k prime
# bases, so those bases prove primality below psi; `is_prime` switches base
# sets at these bounds.
_STRONG_PSEUDOPRIMES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_rejects_the_base_set_bounds():
    for psi, k in _STRONG_PSEUDOPRIMES:
        assert all(_strong_probable_prime(psi, a) for a in _PRIMES_BELOW_100[:k]), psi
        assert is_prime(psi) is False, psi


def _primes_between(lo, hi):
    """Primes in [lo, hi) by a segmented sieve."""
    mark = bytearray([1]) * (hi - lo)
    for p in sieve_primes(math.isqrt(hi)):
        start = max(p * p, -(-lo // p) * p)
        mark[start - lo :: p] = bytes(len(range(start - lo, hi - lo, p)))
    return {lo + i for i, keep in enumerate(mark) if keep and lo + i > 1}


def test_is_prime_against_sieve_around_base_set_switches():
    # Windows straddling the bounds where the Miller-Rabin base set changes.
    for psi, _ in _STRONG_PSEUDOPRIMES[1:6]:
        lo, hi = psi - 1500, psi + 1500
        table = _primes_between(lo, hi)
        for n in range(lo, hi):
            assert is_prime(n) == (n in table), n


def test_is_prime_screen_against_a_sieve():
    # Below 1000 is_prime reads the prime table; above it one gcd with the
    # product of those primes screens n, and 1009^2 is the first composite
    # the screen passes to Miller-Rabin.
    lo, hi = 10**6 - 2000, 1009**2 + 2000
    table = _primes_between(lo, hi)
    for n in range(lo, hi):
        assert is_prime(n) == (n in table), n


def test_is_prime_screen_at_the_primes_below_1000():
    below = sieve_primes(999)
    assert len(below) == 168
    assert all(is_prime(p) for p in below)
    assert not any(is_prime(p * (2**61 - 1)) for p in below)
    assert not any(is_prime(n) for n in (-(2**61 - 1), -7, -2, -1, 0, 1))


def test_iroot():
    rng = random.Random(50)
    for _ in range(500):
        r = rng.randrange(1, 10**6)
        k = rng.randrange(2, 8)
        x = r**k
        assert iroot(x, k) == (r, True)
        assert iroot(x + 1, k) == (r, False) or r == 1
        root, exact = iroot(x - 1, k)
        if x > 1:
            assert root == r - 1 and not exact
    assert iroot(0, 5) == (0, True)
    assert iroot(1, 9) == (1, True)
    with pytest.raises(DomainError):
        iroot(-4, 2)
    with pytest.raises(DomainError):
        iroot(4, 0)


def test_iroot_matches_the_newton_oracle():
    rng = random.Random(51)
    cases = []
    for _ in range(3000):
        cases.append((rng.getrandbits(rng.randrange(1, 1201)), rng.randrange(1, 13)))
    # r^k - 1, r^k and r^k + 1, for roots on both sides of 2^32 and for x on
    # both sides of 2^1000, where the float seed gives way to 2^ceil(bits/k).
    roots = [rng.getrandbits(rng.randrange(1, 120)) + 2 for _ in range(300)]
    roots += [2**32 + d for d in range(-3, 4)] + [2**53 + d for d in (-1, 0, 1)]
    for k in range(1, 13):
        edge = newton_iroot(2**1000, k)[0]
        for r in roots + [edge + d for d in range(-2, 3)]:
            cases += [(r**k + d, k) for d in (-1, 0, 1)]
        cases += [(2**1000 + d, k) for d in range(-3, 4)]
    # Past 2^1000 a root below 2^1000 is seeded from log2(x).
    for k in (1009, 1013):
        cases += [(r**k + d, k) for r in (2, 3, 1_000_003, 2**32 + 1) for d in (-1, 0, 1)]
    for x, k in cases:
        assert iroot(x, k) == newton_iroot(x, k), (x, k)


def _largest_power(m):
    """(r, k) with m = r^k and k >= 2 largest, or None, trying every k."""
    for k in range(m.bit_length(), 1, -1):
        root, exact = newton_iroot(m, k)
        if exact and root > 1:
            return root, k
    return None


def test_perfect_power_matches_the_largest_exact_root():
    # Roots are taken once per prime k, while exact, so powers of powers
    # (b^e with composite e, or b itself a power) are the cases to cover,
    # and prime exponents past the primes below 1000.
    cases = list(range(2, 5000)) + [b**e for b in range(2, 60) for e in range(1, 40)]
    cases += [b**e for b in (2, 3, 4, 6, 9) for e in (1009, 1013)]
    for m in cases:
        assert primes_module._perfect_power(m, 0) == _largest_power(m), m


_PRIMES_BELOW_2000 = sieve_primes(2000)


@st.composite
def _rough_powers(draw):
    """(B, m): a bound B and m >= 2 whose primes all exceed B, often a power."""
    bound = draw(st.sampled_from((0, 1, 2, 3, 10, 100, 996, 997, 1000)))
    above = _PRIMES_BELOW_2000[bisect_right(_PRIMES_BELOW_2000, bound) :]
    base = math.prod(draw(st.lists(st.sampled_from(above), min_size=1, max_size=3)))
    return bound, base ** draw(st.integers(1, 12)) * draw(st.sampled_from((1, 1, above[0])))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.just(0), st.integers(2, 2**64))
    | st.tuples(st.just(0), st.builds(pow, st.integers(2, 10**4), st.integers(2, 24)))
    | _rough_powers()
)
def test_perfect_power_matches_the_largest_exact_root_on_random_input(bound_and_m):
    # `bound` promises that every prime of m exceeds it; 0 promises nothing.
    bound, m = bound_and_m
    assert primes_module._perfect_power(m, bound) == _largest_power(m)


def test_perfect_powers_take_prime_exponents_from_the_grown_table(monkeypatch, fresh_sieve):
    assert factorize(3**1009, FactorBudget(2, 0)) == Factorization(((3, 1009),), 1)
    # The roots come before is_prime, whose first Miller-Rabin round on this
    # 20 191-bit power, a full modular exponentiation, takes about 20 s.
    power = 1_000_003**1013
    is_prime = primes_module.is_prime

    def is_prime_but_not_on_the_power(n):
        assert n != power, "is_prime ran on the perfect power"
        return is_prime(n)

    monkeypatch.setattr(primes_module, "is_prime", is_prime_but_not_on_the_power)
    fact = factorize(power, FactorBudget(2, 0))
    assert fact == Factorization(((1_000_003, 1013),), 1)
    assert fact.certified
    assert primes_module._sieve[0] == 20_191


def test_perfect_power_grows_the_table_no_further_than_the_cap(monkeypatch, fresh_sieve):
    monkeypatch.setattr(primes_module, "_SIEVE_CACHE_CAP", 1000)
    assert primes_module._perfect_power(3**1009, 0) is None
    assert primes_module._perfect_power(3**997, 0) == (3, 997)
    assert primes_module._sieve[0] == 1000


def test_a_trial_division_walk_keeps_the_table_it_started_with(monkeypatch, fresh_sieve):
    # Past the cap the walk tries odd numbers from the cover it started with,
    # even if the table grows while the walk is suspended.
    monkeypatch.setattr(primes_module, "_SIEVE_CACHE_CAP", 3000)
    walk = primes_module._trial_division(2 * 1009 * 1013, 20_000)
    assert next(walk) == (2, 1)
    primes_module._primes_up_to(2999)
    assert list(walk) == [(1009, 1), (1013, 1)]


def test_a_sparse_ascending_scan_rebuilds_the_table_a_few_times(monkeypatch, fresh_sieve):
    # Discriminants 4*10^5*j + 5 rise to 1.6*10^9, whose square root is
    # 40 000.  Each walk that outgrows the table grows it to at least twice
    # its cover, so it is rebuilt at most log2(10^5/10^3) + 1 times, not once
    # per new square root, and no further than twice that root, not to the
    # trial bound 10^5.
    table, built = primes_module._sieve_table, []

    def counted(cover):
        built.append(cover)
        return table(cover)

    monkeypatch.setattr(primes_module, "_sieve_table", counted)
    for j in range(1, 4001):
        shifted_eisenstein(IntPoly((-(10**5 * j + 1), 1, 1)))
    # D = 5 * (8*10^4*j + 1) is certified at 5, which the gcd with the first
    # block of primes finds, so no decision walks and none grows the table.
    assert built == []
    for j in range(1, 4001):
        next(primes_module._trial_division(4 * 10**5 * j + 5, 10**5))
    assert len(built) <= math.ceil(math.log2(10**5 / 10**3)) + 1, built
    assert max(built) <= 2 * math.isqrt(4 * 10**5 * 4000 + 5), built


_WALK_PRIMES = sieve_primes(300_000)


def _plain_walk(m, bound, cover):
    """Trial division one divisor at a time, as `_trial_division` describes it.

    The divisors are the primes up to min(bound, cover), then every odd
    number past `cover` up to `bound`.  The walk stops once d^2 exceeds what
    is left or the divisors run out, and yields the rest when it lies
    strictly between 1 and (bound+1)^2.
    """
    primes = _WALK_PRIMES[: bisect_right(_WALK_PRIMES, min(bound, cover))]
    for d in itertools.chain(primes, range(cover + 1 + cover % 2, bound + 1, 2)):
        if d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            yield d, e
    if 1 < m < (bound + 1) ** 2:
        yield m, 1


def _walk_cases(rng, primes, count, bounds):
    """m built from the primes at block starts (so at superblock starts and
    at the start of a superblock's last block too) and one prime either
    side, and m whose square root lies just past such a prime, so that the
    block and superblock skips meet sqrt(m) and the bound.  Then, for each
    bound B, a prime rest that the divisors up to B run out on: the largest
    prime below (B+1)^2 and the smallest above B^2, times 1, 2, 6 or 30 if
    their primes are at most B."""
    starts = range(0, len(primes), 64)
    edges = [primes[j] for k in starts for j in (k - 1, k, k + 1) if 0 <= j < len(primes)]
    cases = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            m = rng.randrange(1, 10**4)
            for _ in range(rng.randrange(1, 4)):
                m *= rng.choice(edges) ** rng.randrange(1, 3)
        elif kind == 1:
            # The first prime above p^2: a prime rest whose square root is just past p.
            m = rng.choice(edges) ** 2 + 1
            while not is_prime(m):
                m += 1
        else:
            p = rng.choice(edges)
            m = p * rng.choice(edges[edges.index(p) :]) * rng.choice((1, 2, 6, 30))
        cases.append(m)
    for bound in bounds:
        below, above = (bound + 1) ** 2 - 1, bound**2 + 1
        while below > 1 and not is_prime(below):
            below -= 1
        while not is_prime(above):
            above += 1
        for c, largest in ((1, 0), (2, 2), (6, 3), (30, 5)):
            if largest <= bound:
                cases += [q * c for q in {below, above} if 1 < q < (bound + 1) ** 2]
    return cases


def test_trial_division_yields_what_a_plain_walk_yields(fresh_sieve):
    # 8161 is the 1024th prime, so that walk stops at the end of block 15,
    # one block before the end of the first superblock (blocks 1 to 16), and
    # 8731, the 1088th, stops at its end; 104729, the 10000th, stops inside
    # block 156; 300 000 walks 25 997 primes, so superblocks skip whole and
    # the last one is short.
    bounds = (2, 8161, 8731, 104_729, 300_000)
    cases = _walk_cases(random.Random(74), _WALK_PRIMES, 400, bounds)
    for bound in bounds:
        for m in cases:
            walk = list(primes_module._trial_division(m, bound))
            assert walk == list(_plain_walk(m, bound, bound)), (m, bound)


def test_trial_division_past_the_cap_yields_what_a_plain_walk_yields(monkeypatch, fresh_sieve):
    # The table holds 2262 primes up to 20 000: block 0, two superblocks and
    # a short third; past the cap the walk goes on with every odd number.
    monkeypatch.setattr(primes_module, "_SIEVE_CACHE_CAP", 20_000)
    primes_module._primes_up_to(20_000)
    bounds = (20_000, 20_011, 50_000)
    cases = _walk_cases(
        random.Random(75), _WALK_PRIMES[: bisect_right(_WALK_PRIMES, 60_000)], 300, bounds
    )
    for bound in bounds:
        for m in cases:
            walk = list(primes_module._trial_division(m, bound))
            assert walk == list(_plain_walk(m, bound, 20_000)), (m, bound)
    assert primes_module._sieve[0] == 20_000


def test_trial_division_from_the_second_block_yields_what_a_plain_walk_yields(fresh_sieve):
    # With the first block's primes 2, ..., 311 divided out of an m above
    # 311^2, the walk may start at the second block, block skips first.
    first = math.prod(_WALK_PRIMES[:64])
    bounds = (2, 311, 313, 8161, 8731, 104_729, 300_000)
    cases = []
    for m in _walk_cases(random.Random(76), _WALK_PRIMES, 400, bounds):
        common = math.gcd(m, first)
        while common > 1:
            m //= common
            common = math.gcd(m, common)
        if m == 1 or m > 311**2:
            cases.append(m)
    assert len(cases) > 200
    for bound in bounds:
        for m in cases:
            walk = list(primes_module._trial_division(m, bound, 64))
            assert walk == list(_plain_walk(m, bound, bound)), (m, bound)


def test_a_walk_yields_a_prime_rest_below_the_bound_plus_one_squared():
    # 7^2 = 49 <= 53: the primes up to 10 run out, not one whose square
    # exceeds 53, and 53 < 11^2 with no prime up to 10 is prime.
    assert list(primes_module._trial_division(53, 10)) == [(53, 1)]
    assert list(primes_module._trial_division(5, 2)) == [(5, 1)]
    assert list(primes_module._trial_division(7, 2)) == [(7, 1)]


def test_a_walk_leaves_one_or_a_rest_past_the_bound_plus_one_squared(fresh_sieve):
    # Whatever the block and superblock skips pass, the yielded primes
    # ascend with exact exponents, and the rest left is 1 or at least
    # (B+1)^2 with no prime up to B.  A walk from the second block needs an
    # m above 311^2 with no prime up to 311.
    bounds = (0, 1, 2, 10, 311, 313, 8161, 8731, 10**5)
    cases = [*range(1, 500), *_walk_cases(random.Random(77), _WALK_PRIMES, 400, bounds)]
    first = math.prod(_WALK_PRIMES[:64])
    for bound in bounds:
        below = math.prod(_WALK_PRIMES[: bisect_right(_WALK_PRIMES, bound)])
        for m in cases:
            for start in (0, 64) if m > 311**2 and math.gcd(m, first) == 1 else (0,):
                rest, last = m, 1
                for p, e in primes_module._trial_division(m, bound, start):
                    assert last < p and is_prime(p), (m, bound, start, p)
                    assert rest % p**e == 0 and rest // p**e % p, (m, bound, start, p)
                    rest, last = rest // p**e, p
                assert rest == 1 or (
                    rest >= (bound + 1) ** 2 and math.gcd(rest, below) == 1
                ), (m, bound, start)


# Trial bounds B with B + 1 prime (1009) and the default 10^5, and the
# smallest primes above them.
_ROUGH_BOUNDS = ((1008, (1009, 1013, 1019)), (100_000, (100_003, 100_019, 100_043)))


@pytest.mark.parametrize("bound, above", _ROUGH_BOUNDS)
def test_rough_rests_skip_the_tests_that_cannot_succeed(monkeypatch, bound, above):
    # After trial division to B every prime of the rest exceeds B, so a piece
    # below (B+1)^2 is prime, and a k-th root r > 1 of a piece has r >= B+1:
    # no root is taken with (B+1)^k above what is left, so below (B+1)^3 a
    # piece (p, p^2 or p*q) is asked for a square root alone.
    square = (bound + 1) ** 2
    is_prime, iroot = primes_module.is_prime, primes_module.iroot
    orders = set()

    def is_prime_from_the_square_on(n):
        assert n >= square, "is_prime ran on %d, below (B+1)^2" % n
        return is_prime(n)

    def iroot_only_where_it_can_be_exact(x, k):
        assert (bound + 1) ** k <= x, "a %d-th root of %d, below (B+1)^%d" % (k, x, k)
        orders.add(k)
        return iroot(x, k)

    monkeypatch.setattr(primes_module, "is_prime", is_prime_from_the_square_on)
    monkeypatch.setattr(primes_module, "iroot", iroot_only_where_it_can_be_exact)
    # Nor do the Miller-Rabin rounds behind is_prime's gcd screen.
    miller_rabin = primes_module._miller_rabin

    def miller_rabin_from_the_square_on(n):
        assert n >= square, "Miller-Rabin ran on %d, below (B+1)^2" % n
        return miller_rabin(n)

    monkeypatch.setattr(primes_module, "_miller_rabin", miller_rabin_from_the_square_on)
    p, q, r = above
    budget = FactorBudget(bound, 10**6)
    next_prime = next(n for n in itertools.count(p * p) if is_prime(n))
    expected = {
        p * p: ((p, 2),),
        p * q: ((p, 1), (q, 1)),
        next_prime: ((next_prime, 1),),
        6 * p**3: ((2, 1), (3, 1), (p, 3)),
        p * p * q: ((p, 2), (q, 1)),
        p * q * r: ((p, 1), (q, 1), (r, 1)),
        (p * q) ** 2: ((p, 2), (q, 2)),
    }
    for n, factors in expected.items():
        assert factorize(n, budget) == Factorization(factors, 1), n
    assert orders == {2, 3}  # (B+1)^5 exceeds every piece here
    # A rest the caller has trial-divided already goes straight to the split.
    assert factorize(q, budget, trial_divided=True) == Factorization(((q, 1),), 1)
    # Without rho steps p*q stays whole, after one primality test on it.
    assert factorize(2 * p * q, FactorBudget(bound, 0)) == Factorization(((2, 1),), p * q)


@pytest.mark.parametrize("bound", (996, 997))
def test_rough_pieces_take_one_primality_test(monkeypatch, bound):
    # With or without primes below 1000 left to divide a piece, p*q is asked
    # once whether it is prime, through is_prime, whose gcd screen passes it
    # on to one run of Miller-Rabin; rho has no steps to split it.
    ran = []
    for name, label in (("is_prime", "is_prime"), ("_miller_rabin", "mr")):

        def recorded(n, test=getattr(primes_module, name), label=label):
            ran.append((label, n))
            return test(n)

        monkeypatch.setattr(primes_module, name, recorded)
    assert factorize(1009 * 1013, FactorBudget(bound, 0)) == Factorization((), 1009 * 1013)
    assert ran == [("is_prime", 1009 * 1013), ("mr", 1009 * 1013)]


def test_factorize_complete_small():
    fact = factorize(2**5 * 3**2 * 7)
    assert fact.factors == ((2, 5), (3, 2), (7, 1))
    assert fact.cofactor == 1
    assert fact.certified
    assert math.prod(p**e for p, e in fact.factors) == 2**5 * 3**2 * 7


def test_factorize_sign_and_units():
    assert factorize(-112).factors == ((2, 4), (7, 1))
    assert factorize(1) == factorize(-1)
    assert factorize(1).factors == ()
    assert factorize(1).certified
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_random_reconstruction():
    rng = random.Random(51)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        fact = factorize(n)
        assert fact.certified
        assert fact.cofactor == 1
        assert math.prod(p**e for p, e in fact.factors) == n
        for p, e in fact.factors:
            assert is_prime(p)
            assert e >= 1
            assert n % p**e == 0
            assert n % p ** (e + 1) != 0


def test_factorize_perfect_power_without_rho():
    p = 104729
    budget = FactorBudget(trial_bound=100, rho_iterations=0)
    fact = factorize(p * p, budget)
    assert fact.certified
    assert fact.factors == ((p, 2),)


def test_factorize_rho_alone_splits_off_the_factor_two():
    fact = factorize(2 * 1_000_003 * 1_000_033, FactorBudget(0, 10**4))
    assert fact == Factorization(((2, 1), (1_000_003, 1), (1_000_033, 1)), 1)


def test_factorize_budget_exhaustion_is_honest():
    p = 1_000_000_007
    q = 1_000_000_009
    budget = FactorBudget(trial_bound=100, rho_iterations=0)
    fact = factorize(p * q, budget)
    assert not fact.certified
    assert fact.cofactor == p * q
    assert fact.cofactor * math.prod(p**e for p, e in fact.factors) == p * q


def test_factorize_rho_splits_semiprime():
    p = 1_000_003
    q = 1_000_033
    budget = FactorBudget(trial_bound=50, rho_iterations=10**6)
    fact = factorize(p * q, budget)
    assert fact.certified
    assert fact.factors == ((p, 1), (q, 1))


# Budgets whose trial bounds end at every kind of place in the blocked walk:
# the default; the prime 2 alone; 25 primes, inside the first block of 64;
# 168 primes, two blocks and 40 more; and past the sieve cache cap.  The
# bounds 1000 and 10^5 come with 0, 1 and 10^6 rho steps, for the rests
# that _JUST_ABOVE leaves them.
ORACLE_BUDGETS = (
    FactorBudget(),
    FactorBudget(trial_bound=2, rho_iterations=1),
    FactorBudget(trial_bound=100, rho_iterations=0),
    FactorBudget(trial_bound=1000, rho_iterations=200),
    FactorBudget(trial_bound=primes_module._SIEVE_CACHE_CAP + 1000),
    FactorBudget(trial_bound=1000, rho_iterations=0),
    FactorBudget(trial_bound=1000, rho_iterations=1),
    FactorBudget(trial_bound=1000, rho_iterations=10**6),
    FactorBudget(trial_bound=100_000, rho_iterations=0),
    FactorBudget(trial_bound=100_000, rho_iterations=1),
)
_SMALL = sieve_primes(400)  # 78 primes, past the first block
_MEDIUM = (1009, 7919, 10007, 65537, 100003, 131071)
_LARGE = (1_000_003, 15_485_863, 2**31 - 1, 999_999_999_989)
# The smallest primes above the trial bounds 2, 100, 1000 and 10^5: products
# of two or three of them leave primes, squares and semiprimes just past a
# bound as the rest.
_JUST_ABOVE = (3, 5, 101, 103, 1009, 1013, 100_003, 100_019, 100_043)


@st.composite
def integers_to_factor(draw):
    """Products of small and medium prime powers, at most one large prime,
    one arbitrary factor up to 2*10^5 and up to three primes just above a
    trial bound, so every walk ends below 10^6."""
    n = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 200_000))
    for p in draw(st.lists(st.sampled_from(_SMALL), max_size=6)):
        n *= p
    for p in draw(st.lists(st.sampled_from(_MEDIUM), max_size=2)):
        n *= p ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        n *= draw(st.sampled_from(_LARGE))
    for p in draw(st.lists(st.sampled_from(_JUST_ABOVE), max_size=3)):
        n *= p
    return n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(integers_to_factor())
def test_factorize_matches_trial_division_oracle(n):
    for budget in ORACLE_BUDGETS:
        assert factorize(n, budget) == trial_factorize(n, budget), (n, budget)


def test_factorize_past_a_small_cache_cap_matches_oracle(monkeypatch, fresh_sieve):
    # With the cache cap lowered to 3000, a bound of 20000 walks the cached
    # primes and then every odd number up to the bound; bounds of 2000 and
    # 2999 grow the cache and its block products first.
    candidates = sieve_primes(30_000)
    rng = random.Random(71)
    monkeypatch.setattr(primes_module, "_SIEVE_CACHE_CAP", 3000)
    for bound in (2000, 20_000, 2999, 20_000):
        budget = FactorBudget(trial_bound=bound, rho_iterations=50)
        for _ in range(200):
            n = 1
            for _ in range(rng.randrange(1, 5)):
                n *= rng.choice(candidates) ** rng.randrange(1, 3)
            assert factorize(n, budget) == trial_factorize(n, budget), (n, bound)
    assert primes_module._sieve[0] == 2999


def test_factor_budget_scaled():
    b = FactorBudget(trial_bound=10, rho_iterations=20)
    s = b.scaled(3)
    assert s.trial_bound == 30
    assert s.rho_iterations == 60


def _brute_roots(f: IntPoly, p: int) -> list[int]:
    out = []
    for s in range(p):
        acc = 0
        for c in reversed(f.coeffs):
            acc = (acc * s + c) % p
        if acc == 0:
            out.append(s)
    return out


def test_roots_mod_p_scan_matches_brute_force():
    # Small primes; then multiples of x^p - x, where gcd(x^p - x, f) is x^p - x
    # and every residue is a root, found without the splitter, whose exponent
    # (p - 1) / 2 is 0 at p = 2.
    rng = random.Random(53)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13, 97, 509])
        deg = rng.randrange(1, 6)
        coeffs = [rng.randrange(-30, 31) for _ in range(deg)] + [1]
        f = IntPoly(tuple(coeffs))
        assert roots_mod_p(f, p) == _brute_roots(f, p)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            h = [rng.randrange(-30, 31) for _ in range(rng.randrange(0, 4))] + [1]
            coeffs = [0] * (p + len(h))  # (x^p - x) h = x^p h - x h
            for i, c in enumerate(h):
                coeffs[i + p] += c
                coeffs[i + 1] -= c
            f = IntPoly(tuple(coeffs))
            assert roots_mod_p(f, p) == _brute_roots(f, p) == list(range(p))
    assert roots_mod_p(IntPoly((0, 1, 1)), 2) == [0, 1]  # x^2 + x


def test_roots_mod_p_splitting_matches_scan():
    # Larger primes, where splitting gcd(x^p - x, f) has more roots to separate.
    rng = random.Random(54)
    for _ in range(150):
        p = rng.choice([521, 1009, 4099])
        deg = rng.randrange(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = IntPoly(tuple(coeffs))
        assert roots_mod_p(f, p) == _brute_roots(f, p)


def test_roots_mod_p_repeated_roots_reported_once():
    p = 1009
    f = IntPoly((9, -6, 1))  # (x-3)^2
    assert roots_mod_p(f, p) == [3]


def test_roots_mod_p_constructed_full_split():
    p = 10007
    # (x-1)(x-2)(x-5000) mod p
    r1, r2, r3 = 1, 2, 5000
    c0 = (-r1 * -r2 * -r3) % p
    c1 = (r1 * r2 + r1 * r3 + r2 * r3) % p
    c2 = (-(r1 + r2 + r3)) % p
    f = IntPoly((c0, c1, c2, 1))
    assert roots_mod_p(f, p) == [1, 2, 5000]


def test_roots_mod_p_deterministic():
    f = IntPoly((123, 456, 789, 1))
    a = roots_mod_p(f, 100003)
    b = roots_mod_p(f, 100003)
    assert a == b


def test_roots_mod_p_rejects_bad_inputs():
    with pytest.raises(DomainError):
        roots_mod_p(IntPoly((1, 1)), 10)  # composite modulus
    with pytest.raises(DomainError):
        roots_mod_p(IntPoly((7, 7, 7)), 7)  # vanishes identically
    assert roots_mod_p(IntPoly((3,)), 5) == []
    assert roots_mod_p(IntPoly((1, 1009)), 1009) == []  # a nonzero constant mod p


def test_euler_phi_omega_mobius_oracles():
    def phi_brute(d):
        from math import gcd

        return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)

    def omega_brute(d):
        count = 0
        for p in _PRIMES_BELOW_100 + sieve_primes(2200)[25:]:
            if p > d:
                break
            if d % p == 0:
                count += 1
        return count

    def mobius_brute(d):
        count = 0
        m = d
        for p in sieve_primes(2200):
            if p * p > m:
                break
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                count += 1
        if m > 1:
            count += 1
        return -1 if count % 2 else 1

    for d in range(1, 2001):
        assert euler_phi(d) == phi_brute(d)
        assert len(factorize(d).factors) == omega_brute(d)
        assert mobius(d) == mobius_brute(d)


def test_arithmetic_functions_refuse_unfactorable_inputs():
    # These oracles promise exact answers, so they assert a complete
    # factorization rather than use an incomplete one.  The default budget
    # completes one for numbers this size:
    assert euler_phi(2**31 - 1) == 2**31 - 2
    assert len(factorize((2**31 - 1) * 6700417).factors) == 2
    assert mobius((2**31 - 1) * 6700417) == 1
