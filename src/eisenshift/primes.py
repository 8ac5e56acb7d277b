"""Prime sieving, budgeted integer factorization, and roots of polynomials mod p.

Everything here is deterministic: primality testing uses fixed Miller-Rabin
base sets, Pollard rho restarts walk a fixed parameter schedule, and the
randomized root-splitting step is seeded from the prime.  Budgets make the
expensive operations refuse predictably instead of running away.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from collections import namedtuple

from .errors import BudgetError, DomainError
from .intpoly import IntPoly, _check_poly

__all__ = [
    "DEFAULT_BUDGET",
    "sieve_primes",
    "first_primes",
    "is_prime",
    "iroot",
    "FactorBudget",
    "Factorization",
    "factorize",
    "roots_mod_p",
]

# Miller-Rabin to the first k prime bases is proven correct below the
# smallest strong pseudoprime to all of them; each n gets the shortest base
# set proven for its size.  At and above the last bound the test is a strong
# probable-prime test to 25 fixed bases.
_MR_PROVEN_BASES = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_PROBABLE_BASES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


_SIEVE_LIMIT_CAP = 100_000_000  # sieve_primes refuses larger limits


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending (empty for limit < 2).

    BudgetError, before anything is allocated, when limit exceeds 10^8
    (_SIEVE_LIMIT_CAP): the sieve takes a byte per number.
    """
    if type(limit) is not int:
        raise DomainError("sieve_primes needs an int limit, got %r" % (limit,))
    if limit > _SIEVE_LIMIT_CAP:
        raise BudgetError("sieve limit %d exceeds the sieve cap %d" % (limit, _SIEVE_LIMIT_CAP))
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


_SIEVE_CACHE_CAP = 8_000_000  # how far trial division and perfect powers grow the prime table
_BLOCK = 64
_SUPERBLOCK = 16 * _BLOCK


def _sieve_table(cover: int) -> tuple[int, list[int], list[int], list[int]]:
    """(cover, the primes up to cover, the product of each block of _BLOCK of
    them, the product of each superblock of _SUPERBLOCK of them).

    Block k holds primes[64*k : 64*k + 64] and superblock k the 16 blocks
    from 16*k + 1 on, as `_trial_division` skips from block 1 on; the last
    of either may be short.
    """
    primes = sieve_primes(cover)
    blocks = [math.prod(primes[i : i + _BLOCK]) for i in range(0, len(primes), _BLOCK)]
    per = _SUPERBLOCK // _BLOCK
    superblocks = [math.prod(blocks[k : k + per]) for k in range(1, len(blocks), per)]
    return cover, primes, blocks, superblocks


# The prime table cached across calls; growing it replaces it whole.
_sieve = _sieve_table(1000)
_SMALL_PRIMES = frozenset(_sieve[1])
_SMALL_PRODUCT = math.prod(_sieve[1])


def _primes_up_to(bound: int) -> tuple[int, list[int], list[int], list[int]]:
    """The cached prime table, first grown to cover every prime up to `bound`."""
    global _sieve
    if _sieve[0] < bound:
        _sieve = _sieve_table(bound)
    return _sieve


@functools.lru_cache(maxsize=64)
def _prime_product(bound: int) -> int | None:
    """The product of the primes up to `bound`, or None past _SIEVE_CACHE_CAP."""
    if bound > _SIEVE_CACHE_CAP:
        return None
    primes = _primes_up_to(bound)[1]
    return math.prod(primes[: bisect_right(primes, bound)])


def first_primes(count: int) -> list[int]:
    """The first `count` primes, ascending, as a fresh list.  They stay cached
    in the prime table trial division reads, grown past _SIEVE_CACHE_CAP if need be.
    BudgetError when they would need a sieve past 10^8 (`sieve_primes`)."""
    if type(count) is not int or count < 0:
        raise DomainError("first_primes needs an int count >= 0, got %r" % (count,))
    bound = 15  # p_5 = 11
    if count >= 6:
        # p_k < k (ln k + ln ln k) for k >= 6 (Rosser and Schoenfeld 1962, Theorem 3)
        bound = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    return _primes_up_to(bound)[1][:count]


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test on fixed bases.

    Proven correct below 3,317,044,064,679,887,385,961,981: n < 1000 is read
    from the table of primes below 1000, a larger n sharing none of them (one
    gcd with their product) goes to Miller-Rabin on the shortest prefix of the
    prime bases 2, 3, 5, ..., 41 that no composite of n's size passes (base 2
    below 2047, bases 2..3 below 1,373,653, ..., bases 2..37 below
    318,665,857,834,031,151,167,461, all 13 bases below the bound; each bound
    is the smallest strong pseudoprime to the bases before it).  At and above
    it, a strong probable-prime test to the 25 fixed prime bases 2..97, not a
    proof: composites that pass every fixed base set can be constructed.
    DomainError unless n is an int (a bool is not).
    """
    if type(n) is not int:
        raise DomainError("is_prime needs an int, got %r" % (n,))
    if n < 1000:
        return n in _SMALL_PRIMES
    return math.gcd(n, _SMALL_PRODUCT) == 1 and _miller_rabin(n)


@functools.lru_cache(maxsize=1)
def _miller_rabin(n: int) -> bool:
    """`is_prime`'s Miller-Rabin rounds alone, for an odd n > 1000 (see there).

    The last answer is kept: a rest of |D| that `is_prime` found composite
    comes back to `_split_rough` unchanged when trial division finds none
    of its primes, and is not tested twice."""
    d = n - 1
    r = (d & -d).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d >>= r
    bases = next((b for bound, b in _MR_PROVEN_BASES if n < bound), _MR_PROBABLE_BASES)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(x: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of x >= 0 and whether it is exact.

    For k >= 3 and a root below 2^1000 the float seed x**(1/k) (x < 2^1000, ln x
    < 694) or 2**(log2(x)/k) (log2 from x's leading 53 bits) is within a relative
    10^-12 of the root: off by at most 1 below 2^32, above it once raised by 2^-30.
    """
    if type(x) is not int or type(k) is not int or x < 0 or k < 1:
        raise DomainError("iroot needs ints x >= 0 and k >= 1, got %r and %r" % (x, k))
    if k == 1 or x in (0, 1):
        return x, True
    if k == 2:
        r = math.isqrt(x)
        return r, r * r == x
    r = 1 << ((x.bit_length() + k - 1) // k)
    if r.bit_length() <= 1000:
        r = int(x ** (1 / k) if x.bit_length() <= 1000 else 2 ** (math.log2(x) / k))
        if r < 1 << 32:
            r -= r**k > x
            r += (r + 1) ** k <= x
            return r, r**k == x
        r += (r >> 30) + 1
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r, r**k == x
        r = nxt


class FactorBudget(namedtuple("FactorBudget", "trial_bound rho_iterations")):
    """Work bound for factorization: two int bounds.

    `trial_bound` is the largest trial divisor and `rho_iterations` the number
    of Brent-Pollard rho steps shared by all splits of one factorization.
    Both must be ints >= 0, bools rejected as for IntPoly's coefficients
    (DomainError).  Trial divisors and perfect-power exponents come from one
    cached prime table grown to 8*10^6 at most (_SIEVE_CACHE_CAP), so a power
    with a prime exponent up to there is extracted at no rho cost.
    """

    __slots__ = ()

    def __new__(cls, trial_bound: int = 100_000, rho_iterations: int = 1_000_000):
        self = tuple.__new__(cls, (trial_bound, rho_iterations))
        if not (
            type(trial_bound) is type(rho_iterations) is int
            and trial_bound >= 0
            and rho_iterations >= 0
        ):
            raise DomainError(
                "budget needs int trial_bound >= 0 and rho_iterations >= 0, got %r" % (self,)
            )
        return self

    @classmethod
    def _make(cls, iterable):
        """Build by `__new__`, so `_make` and `_replace` check the bounds too."""
        return cls(*iterable)

    def scaled(self, factor: int) -> "FactorBudget":
        """Same budget with trial bound and rho iterations multiplied."""
        return FactorBudget(
            trial_bound=self.trial_bound * factor,
            rho_iterations=self.rho_iterations * factor,
        )


DEFAULT_BUDGET = FactorBudget()


def _budget_error(caller: str, budget) -> DomainError:
    """The error for a `budget` that is not a FactorBudget.  Public entry points
    test `type(budget) is not FactorBudget` inline, once per call, as a call
    costs more than the test on the decision path; private helpers trust them."""
    return DomainError("%s needs a FactorBudget, got %r" % (caller, budget))


class Factorization(namedtuple("Factorization", "factors cofactor")):
    """Outcome of a budgeted factorization of |n|.

    `factors` lists (prime, exponent) ascending; `cofactor` multiplies any
    composite part the budget could not split, and `certified` says it is 1.
    Every listed prime was found by trial division to the trial bound B, or
    is a piece below (B+1)^2 with no prime factor up to B, or passed
    `is_prime`.  So a certified factorization is proven when all the primes
    of the last kind lie below 3,317,044,064,679,887,385,961,981; such a
    prime above that bound is a strong probable prime to 25 fixed bases.
    """

    __slots__ = ()

    @property
    def certified(self) -> bool:
        return self.cofactor == 1


def _perfect_power(m: int, bound: int) -> tuple[int, int] | None:
    """Decompose m = base^k with k maximal (k >= 2), or None, given that every
    prime of m exceeds `bound` (0 promises nothing).

    One pass over the primes k, taking k-th roots while they are exact, up to
    the first k with (max(bound, 1) + 1)^k above what is left: a root r > 1
    with only primes above `bound` is at least that, so below (bound + 1)^3
    one square root is taken.  A base with no k-th root never gains one later:
    if base = r^j and r = s^k, then base = (s^j)^k.  The primes k come from
    the cached prime table, grown to m's bit length but not past
    _SIEVE_CACHE_CAP, so a prime exponent above 8*10^6 is not found.
    """
    least = max(bound, 1) + 1
    base, power = m, 1
    for k in _primes_up_to(min(m.bit_length(), _SIEVE_CACHE_CAP))[1]:
        if least**k > base:
            break
        root, exact = iroot(base, k)
        while exact:
            base, power = root, power * k
            if least**k > base:
                break
            root, exact = iroot(base, k)
    if power >= 2:
        return base, power
    return None


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """One Brent-Pollard rho factor of odd composite n, or None on budget out.

    Restart parameters follow a fixed schedule so runs are reproducible; the
    shared `budget` cell counts every squaring step across restarts.
    """
    if n % 2 == 0:
        return 2
    attempt = 0
    while budget[0] > 0:
        y = 2 + attempt
        c = 1 + 2 * attempt
        attempt += 1
        g = 1
        r = 1
        q = 1
        x = y
        ys = y
        while g == 1 and budget[0] > 0:
            x = y
            for _ in range(min(r, budget[0])):
                y = (y * y + c) % n
            budget[0] -= min(r, budget[0])
            k = 0
            while k < r and g == 1 and budget[0] > 0:
                ys = y
                steps = min(128, r - k, budget[0])
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # Batched gcd overshot; walk back one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factorize(
    n: int, budget: FactorBudget = DEFAULT_BUDGET, *, trial_divided: bool = False
) -> Factorization:
    """Factor |n| under the given budget.

    Trial division up to B = budget.trial_bound finds the prime factors in
    ascending order.  The rest it leaves unsplit is 1, or at least (B+1)^2
    with every prime factor above B, and `_split_rough` splits that rest
    with Brent-Pollard rho, sharing budget.rho_iterations among all its
    splits.  Pieces the budget cannot split end up multiplied into the
    cofactor and the result is marked uncertified.  `trial_divided=True`
    says the caller has already divided every prime up to B out of n, which
    is not checked: the walk is skipped and |n| goes straight to the split.
    """
    if type(n) is not int or n == 0:
        raise DomainError("factorize needs a nonzero int, got %r" % (n,))
    if type(budget) is not FactorBudget:
        raise _budget_error("factorize", budget)
    found: dict[int, int] = {}
    rest = abs(n)
    if not trial_divided:
        for p, e in _trial_division(rest, budget.trial_bound):
            found[p] = e
            rest //= p**e
    cofactor = _split_rough(rest, budget.rho_iterations, budget.trial_bound, found)
    return Factorization(tuple(sorted(found.items())), cofactor)


def _split_rough(m: int, rho_iterations: int, bound: int, found: dict[int, int]) -> int:
    """Split m >= 1, whose prime factors all exceed `bound`, into `found`.

    Returns the product of the pieces that `rho_iterations` Brent-Pollard
    rho steps, shared by all splits, could not split (1 when m is split
    completely).  A piece is a divisor of m, so one below (bound + 1)^2 is
    prime; a larger one is asked for a perfect power, then tested by
    `is_prime`, then split by rho.  A perfect power is never prime, so
    asking for one first splits the same way, and on a large power the
    roots cost far less than is_prime's first Miller-Rabin round.
    """
    square = (bound + 1) ** 2
    cofactor = 1
    pending = [(m, 1)]
    rho_left = [rho_iterations]
    while pending:
        value, mult = pending.pop()
        if value == 1:
            continue
        if value < square:
            found[value] = found.get(value, 0) + mult
            continue
        power = _perfect_power(value, bound)
        if power is not None:
            base, k = power
            pending.append((base, mult * k))
            continue
        if is_prime(value):
            found[value] = found.get(value, 0) + mult
            continue
        divisor = _brent_rho(value, rho_left)
        if divisor is None:
            cofactor *= value**mult
            continue
        pending.append((divisor, mult))
        pending.append((value // divisor, mult))
    return cofactor


def _trial_division(m: int, bound: int, start: int = 0):
    """Trial-divide m >= 1 by the primes up to `bound`, smallest first.

    Yields (p, e) with p^e exactly dividing m, in ascending order.  The walk
    stops once p^2 exceeds what is left or the divisors run out; a rest
    1 < rest < (bound+1)^2 then has no prime up to `bound`, so it is prime
    and is yielded too.  Dividing the yielded p^e out of m leaves the
    unsplit rest: 1, or a number >= (bound+1)^2 whose prime factors all
    exceed `bound`.  A caller that stops early never pays for the larger
    primes.  The walk skips the first `start` primes, which the caller has
    divided out of an m above the square of the last of them.

    The primes come from the prime table cached across calls, read once per
    walk.  A walk grows it only when m exceeds its cover squared, to isqrt(m)
    or twice its cover if larger, and never past `bound` or _SIEVE_CACHE_CAP
    = 8*10^6: so the table grows only as far as some walk can reach, and a
    scan of ascending m rebuilds it a logarithmic number of times.  Past
    what it covers every odd number is tried.  Past the first block of 64
    cached primes, one gcd skips a block whose cached product is coprime to
    the rest, and at a superblock start (block 1, 17, 33, ...) one gcd skips
    all 16 blocks of one.  A skip needs the stretch's first prime squared (a
    superblock's: its last block's) not to exceed the rest, so a walk about
    to stop pays for no large gcd.
    """
    table = _sieve
    if table[0] < bound <= _SIEVE_CACHE_CAP and m > table[0] ** 2:
        table = _primes_up_to(min(bound, max(math.isqrt(m), 2 * table[0])))
    cover, primes, blocks, superblocks = table
    stop = len(primes) if bound >= cover else bisect_right(primes, bound)
    i = start
    while i < stop:
        if i % _BLOCK == 0 and i:
            while i < stop and primes[i] ** 2 <= m:
                if (
                    i % _SUPERBLOCK == _BLOCK
                    and i + _SUPERBLOCK - _BLOCK < stop
                    and primes[i + _SUPERBLOCK - _BLOCK] ** 2 <= m
                    and math.gcd(superblocks[i // _SUPERBLOCK], m) == 1
                ):
                    i += _SUPERBLOCK
                elif math.gcd(blocks[i // _BLOCK], m) == 1:
                    i += _BLOCK
                else:
                    break
            if i >= stop:
                continue
        p = primes[i]
        if p * p > m:
            break
        if m % p == 0:
            m, e = _divide_out(m, p)
            yield p, e
        i += 1
    else:
        # Past the table every odd number is a trial divisor: a composite
        # one never divides what is left, as its prime factors are gone.
        for p in range(cover + 1 + cover % 2, bound + 1, 2):
            if p * p > m:
                break
            if m % p == 0:
                m, e = _divide_out(m, p)
                yield p, e
    if 1 < m < (bound + 1) ** 2:
        yield m, 1


def _divide_out(m: int, p: int) -> tuple[int, int]:
    """m with every factor p removed, and the number removed."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return m, e


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p (dense ascending lists), used for root finding.


def _ptrim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    if not a:
        return [0]
    return a


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b over F_p."""
    r = [c % p for c in a]
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for d in range(len(r) - 1, db - 1, -1):
        coef = r[d]
        if coef:
            q[d - db] = coef
            for i in range(db + 1):
                r[d - db + i] = (r[d - db + i] - coef * b[i]) % p
    return _ptrim(q), _ptrim(r[:db])


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _pdivmod(out, f, p)[1]


def _ppowmod(base: list[int], exp: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pdivmod(base, f, p)[1]
    while exp:
        if exp & 1:
            result = _pmulmod(result, acc, f, p)
        acc = _pmulmod(acc, acc, f, p)
        exp >>= 1
    return result


def _pgcd_monic(a: list[int], b: list[int], p: int) -> list[int]:
    a = _ptrim([c % p for c in a])
    b = _ptrim([c % p for c in b])
    while b != [0]:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, _pdivmod(a, bm, p)[1]
    if a != [0]:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _split_linear(g: list[int], p: int, rng: random.Random) -> list[int]:
    """Roots of a monic product of distinct linear factors over F_p."""
    d = len(g) - 1
    if d == 1:
        return [(-g[0]) % p]
    while True:
        a = rng.randrange(p)
        # gcd(g, (x+a)^((p-1)/2) - 1) separates the roots r with r+a a QR.
        h = _ppowmod([a, 1], (p - 1) // 2, g, p)
        h[0] = (h[0] - 1) % p
        w = _pgcd_monic(g, h, p)
        if 0 < len(w) - 1 < d:
            other = _pdivmod(g, w, p)[0]
            return _split_linear(w, p, rng) + _split_linear(other, p, rng)


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """All residues s with f(s) = 0 (mod p), ascending, each once.

    The roots are those of g = gcd(x^p - x, f) over F_p, a product of
    distinct linear factors.  A g of degree p is x^p - x, so every residue
    is a root; any other g is split by randomized splitting seeded from p,
    and the sorted roots do not depend on its draws.
    """
    _check_poly("roots_mod_p", f)
    if not is_prime(p):
        raise DomainError("roots_mod_p needs a prime modulus")
    fbar = _ptrim([c % p for c in f.coeffs])
    if fbar == [0]:
        raise DomainError("polynomial vanishes identically modulo p")
    inv = pow(fbar[-1], -1, p)
    monic = [(c * inv) % p for c in fbar]
    xp = _ppowmod([0, 1], p, monic, p) + [0, 0]
    xp[1] = (xp[1] - 1) % p  # x^p - x
    g = _pgcd_monic(monic, xp, p)
    if g == [1]:
        return []
    if len(g) - 1 == p:
        return list(range(p))
    return sorted(_split_linear(g, p, random.Random(p)))

