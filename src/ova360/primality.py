"""Prime generation and primality testing.

Provides a segmented odd-only sieve returning numpy arrays, one
Miller-Rabin core behind two entry points, and the factorial
construction of prime-free intervals together with the gap identity
around them. Both entry points answer n < 256 from a table and reject
any larger n sharing a factor with 251#. Below 2**64 the bases come
from the exact bound table of Jaeschke (Math. Comp. 61, 1993) and
Sorenson & Webster (Math. Comp. 86, 2017); above it, bases 2 and 3
are followed by bases drawn lazily from a generator seeded by n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundError, CounterexampleFound, DomainError

MAX_SIEVE_LIMIT = 1 << 40
MAX_FACTORIAL_N = 40

_U64 = 1 << 64
_SMALL_PRIMES = frozenset(
    n for n in range(2, 256) if all(n % d for d in range(2, math.isqrt(n) + 1))
)
_PRIMORIAL_251 = math.prod(_SMALL_PRIMES)
# (bound, bases): Miller-Rabin with these bases is exact for n < bound.
# Each bound but the last is the least strong pseudoprime to its row's
# bases.
_BASES_BELOW = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (_U64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending."""

    limit: int
    primes: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.primes.tolist())


@dataclass(frozen=True)
class CompositeInterval:
    """n consecutive composites [(n+1)!+2, (n+1)!+n+1]."""

    n: int
    low: int
    high: int

    def members(self) -> list[int]:
        return list(range(self.low, self.high + 1))


def _odd_base(limit: int) -> np.ndarray:
    # plain odd-only sieve; index i represents 2i+1
    n = (limit + 1) // 2
    out = np.ones(n, dtype=bool)
    out[0] = False
    for i in range(1, (math.isqrt(limit) // 2) + 1):
        if out[i]:
            p = 2 * i + 1
            out[(p * p) // 2 :: p] = False
    return out


def odd_prime_bitmap(limit: int, segment_odds: int = 1 << 22) -> np.ndarray:
    """Bitmap b with b[i] == (2i+1 is prime), covering odd values <= limit.

    One byte per odd number, so the result takes limit/2 bytes. The
    sieve is segmented so the working set beyond the result is one
    segment; the base sieve only extends to sqrt(limit).
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise BoundError(f"limit {limit} exceeds sieve bound {MAX_SIEVE_LIMIT}")
    n_odds = (limit + 1) // 2
    root = math.isqrt(limit)
    base = _odd_base(max(root, 7))
    if base.size >= n_odds:
        return base[:n_odds].copy()
    small_odd_primes = (2 * np.flatnonzero(base) + 1).tolist()
    out = np.zeros(n_odds, dtype=bool)
    out[: base.size] = base
    start = base.size
    while start < n_odds:
        end = min(start + segment_odds, n_odds)
        seg = np.ones(end - start, dtype=bool)
        lo_val = 2 * start + 1
        for p in small_odd_primes:
            first = max(p * p, ((lo_val + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first > 2 * end - 1:
                continue
            seg[(first - lo_val) // 2 :: p] = False
        out[start:end] = seg
        start = end
    return out


def sieve_primes(limit: int, segment_odds: int = 1 << 22) -> PrimeTable:
    """All primes <= limit as a PrimeTable. limit >= 0."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    bm = odd_prime_bitmap(limit, segment_odds)
    odds = 2 * np.flatnonzero(bm).astype(np.int64) + 1
    primes = np.concatenate(([2], odds))
    return PrimeTable(limit, primes)


def _strong_probable_prime(n: int, d: int, r: int, a: int) -> bool:
    """One Miller-Rabin round: n - 1 = d * 2**r with d odd, base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _odd_part(n: int) -> tuple[int, int]:
    """(d, r) with n - 1 = d * 2**r and d odd; n odd."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    return d >> r, r


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= n < 2**64."""
    if n >= _U64:
        raise DomainError(f"{n} >= 2**64; use is_prime_big")
    if n < 256:
        return n in _SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL_251) != 1:
        return False
    for bound, bases in _BASES_BELOW:
        if n < bound:
            break
    d, r = _odd_part(n)
    for a in bases:
        if not _strong_probable_prime(n, d, r, a):
            return False
    return True


def is_prime_big(n: int, rounds: int = 40) -> bool:
    """Primality for arbitrary integers.

    Exact below 2**64; above that, Miller-Rabin with bases 2 and 3 and
    then ``rounds - 2`` bases drawn, as they are needed, from a
    generator seeded by n, so repeat calls agree. The error probability
    is below 4**-rounds.
    """
    if n < _U64:
        return is_prime(n)
    if math.gcd(n, _PRIMORIAL_251) != 1:
        return False
    d, r = _odd_part(n)
    if not all(_strong_probable_prime(n, d, r, a) for a in (2, 3)):
        return False
    rng = random.Random(n & (_U64 - 1))  # seeding costs half a round: not before
    return all(_strong_probable_prime(n, d, r, rng.randrange(2, n - 1))
               for _ in range(rounds - 2))


def composite_interval(n: int, verify: bool = False) -> CompositeInterval:
    """The n consecutive composites (n+1)!+2 .. (n+1)!+n+1.

    (n+1)!+k is divisible by k for 2 <= k <= n+1, so every member is
    composite. With verify=True each member is also primality-tested
    and a prime member raises CounterexampleFound.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX_FACTORIAL_N:
        raise BoundError(f"n {n} exceeds factorial bound {MAX_FACTORIAL_N}")
    f = math.factorial(n + 1)
    interval = CompositeInterval(n, f + 2, f + n + 1)
    if verify:
        for m in interval.members():
            if is_prime_big(m):
                raise CounterexampleFound(f"interval member {m} is prime")
    return interval


def interval_gap(n: int) -> int:
    """Length (n+1)**2 * n! - n + 1 of the prime-possible gap between
    consecutive factorial composite intervals; cross-checked against
    the literal endpoint difference."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX_FACTORIAL_N:
        raise BoundError(f"n {n} exceeds factorial bound {MAX_FACTORIAL_N}")
    gap = (n + 1) ** 2 * math.factorial(n) - n + 1
    low_next = math.factorial(n + 2) + 2
    high_this = math.factorial(n + 1) + n + 1
    if gap != low_next - high_this:
        raise CounterexampleFound(
            f"gap formula {gap} != endpoint difference {low_next - high_this}"
        )
    return gap


def bertrand_prime(n: int) -> int:
    """Smallest prime strictly between n and 2n (n >= 2)."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    for c in range(n + 1, 2 * n):
        if is_prime_big(c):
            return c
    raise CounterexampleFound(f"no prime in ({n}, {2 * n})")
