"""Prime generation and primality testing.

Provides one segmented sieve over an arithmetic progression: over the
odd numbers it is streamed one segment at a time, which the prime list
and every scan read, and matrix.density runs it over a residue line
z + 360*G.
Also one Miller-Rabin body behind two entry points, and the factorial
construction of prime-free intervals together with the gap identity
around them. The body answers n < 256 from a table and rejects any
larger n sharing a factor with 251#. Below psi_13 ~ 3.3e24 the bases
come from the exact bound table of Jaeschke (Math. Comp. 61, 1993) and
Sorenson & Webster (Math. Comp. 86, 2017); from psi_13 up, bases 2 and
3 are followed by 38 bases drawn lazily from a generator seeded by n,
so a verdict there is probable, with error below 4**-40.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BoundError, CounterexampleFound, DomainError

# odd_prime_segments holds one segment, so time, not memory, bounds it.
# At 1e10 on a 2-core x86-64 VM, `dirichlet --all` takes 54 s and peaks
# at 35 MB. `germain` keeps this bound, though it reads only the primes
# to 4096, which already hold a safe prime in every class one can take:
# at 1e10 it takes 0.26-0.31 s and 31 MB, start-up included.
MAX_STREAM_LIMIT = 10**10
# sieve_primes lists every prime, and the `sieve` verb renders each one
# as text: at 1e8 (5.76M primes) it takes 0.6-0.9 s and peaks at 121 MB
# in every format on a 2-core x86-64 VM (VmHWM, stdout to a file,
# start-up included): the int64 primes (46 MB) held twice while the
# per-segment parts are joined, with the text written part by part.
# JSON peaked at 166 MB while it gathered the array's text before
# writing it.
MAX_PRIME_LIST_LIMIT = 10**8
MAX_FACTORIAL_N = 40

_U64 = 1 << 64
_SMALL_PRIMES = frozenset(
    n for n in range(2, 256) if all(n % d for d in range(2, math.isqrt(n) + 1))
)
_PRIMORIAL_251 = math.prod(_SMALL_PRIMES)
# (bound, bases): Miller-Rabin with these bases is exact for n < bound,
# the least strong pseudoprime to all of them. The last two bounds are
# psi_12 and psi_13.
_BASES_BELOW = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_PSI_13 = _BASES_BELOW[-1][0]


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


# These primes clear their multiples through a pre-sieve pattern rather
# than by striking, so terms up to the last of them are written as prime
# or not.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
# 180 odds (one period of 2i+1 mod 360) times 2^13: 1.4 MB, which fits
# the 2 MB per-core L2 of the 2-core x86-64 VM it was measured on. Every
# segmented sieve, over the odd numbers or a residue line, uses it.
SEGMENT_ODDS = 180 << 13


def _check_sieve_limit(limit: int) -> None:
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > MAX_STREAM_LIMIT:
        raise BoundError(f"limit {limit} exceeds sieve bound {MAX_STREAM_LIMIT}")


def _sieve_segments(first: int, step: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """The one strike loop, over the progression first + step*i for i
    in [0, count); step is even and coprime to first. Yield (start, seg)
    with seg[j] == (first + step*(start+j) is prime) for consecutive
    segments of SEGMENT_ODDS terms, in one buffer that each segment
    overwrites.

    A prime p that divides step never divides a term. Each other base
    prime p <= sqrt(last term) divides the terms with i = -first/step
    (mod p); p from 3 to 13 clear theirs through a pre-sieve pattern of
    period prod(p) that each segment starts as, and every larger p
    strikes its class from the first term >= p*p, which spares p itself
    when it lies on the progression (Bays & Hudson, BIT 17, 1977).
    """
    size = SEGMENT_ODDS
    out = np.empty(min(size, count), dtype=bool)
    pre = [q for q in _PRESIEVE_PRIMES if step % q]
    period = math.prod(pre)
    pattern = np.ones(period, dtype=bool)
    for q in pre:
        pattern[-first * pow(step, -1, q) % q :: q] = False
    # long enough for a slice of any segment's length at any offset
    tiled = np.tile(pattern, min(size, count) // period + 2)
    head = [v in _SMALL_PRIMES for v in range(first, _PRESIEVE_PRIMES[-1] + 1, step)]
    base = _odd_base(math.isqrt(first + step * (count - 1)))
    ps = 2 * np.flatnonzero(base).astype(np.int64) + 1
    ps = ps[(ps > _PRESIEVE_PRIMES[-1]) & (step % ps != 0)]
    primes = ps.tolist()
    # the class each p strikes, and the index of its first term >= p*p
    cls = np.array([-first * pow(step, -1, p) % p for p in primes], dtype=np.int64)
    from_i = np.maximum(-((first - ps * ps) // step), 0)
    for start in range(0, count, size):
        end = min(start + size, count)
        seg = out[:end - start]
        o = start % period
        seg[:] = tiled[o:o + end - start]
        n = np.searchsorted(from_i, end)  # the p with a term >= p*p before end
        lo = np.maximum(from_i[:n], start)
        offsets = lo + (cls[:n] - lo) % ps[:n] - start
        for p, j in zip(primes, offsets.tolist()):
            seg[j::p] = False
        h = head[start:end]
        seg[:len(h)] = h
        yield start, seg


def odd_prime_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the primality of the odd numbers up to limit in segments:
    yield (start, seg) with seg[i] == (2(start+i)+1 is prime), for start
    = 0, SEGMENT_ODDS, 2*SEGMENT_ODDS, ...

    Each segment starts as a slice of the tiled pre-sieve pattern, which
    already clears the multiples of 3, 5, 7, 11 and 13, and is then
    struck by the base primes from 17 to sqrt(limit), so it stays in
    cache while it is sieved. seg is one buffer of SEGMENT_ODDS bytes,
    overwritten by the next segment: copy what must outlive the
    iteration step. Memory is that buffer plus the base primes to
    sqrt(limit), whatever the limit. The limit is checked here, before
    anything is sieved.
    """
    _check_sieve_limit(limit)
    return _sieve_segments(1, 2, (limit + 1) // 2)


def period_counts(bits: np.ndarray, start: int, period: int) -> np.ndarray:
    """c[r] = number of set bits[i] with (start + i) % period == r.

    Rows of 128 periods are summed as bytes, at most 255 rows at a time
    so no byte overflows; the long rows keep numpy's inner loop long,
    which measured 10x faster than one row per period. The row sums
    then fold by period, the short tail is binned, and the columns are
    rotated to start's phase.
    """
    wide = period << 7
    whole = bits.size - bits.size % wide
    cols = np.bincount(np.flatnonzero(bits[whole:]) % period, minlength=period)
    for s in range(0, whole, 255 * wide):
        rows = bits[s:min(s + 255 * wide, whole)].view(np.uint8).reshape(-1, wide)
        row_sums = np.add.reduce(rows, axis=0, dtype=np.uint8)
        cols += row_sums.reshape(-1, period).sum(axis=0, dtype=np.int64)
    return np.roll(cols, start % period)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array. limit >= 0."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit > MAX_PRIME_LIST_LIMIT:
        raise BoundError(f"limit {limit} exceeds prime list bound {MAX_PRIME_LIST_LIMIT}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    parts = [np.array([2], dtype=np.int64)]
    for start, seg in odd_prime_segments(limit):
        # index i is 2(start+i)+1, mapped in place
        odd = np.flatnonzero(seg)
        odd *= 2
        odd += 2 * start + 1
        parts.append(odd)
    return np.concatenate(parts)


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


def _miller_rabin(n: int) -> bool:
    """The body behind is_prime and is_prime_big: exact below psi_13,
    probable from there up."""
    if n < 256:
        return n in _SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL_251) != 1:
        return False
    d, r = _odd_part(n)
    for bound, bases in _BASES_BELOW:
        if n < bound:
            break
    else:
        bases = (2, 3)
    for a in bases:
        if not _strong_probable_prime(n, d, r, a):
            return False
    if n < _PSI_13:
        return True
    rng = random.Random(n & (_U64 - 1))  # seeding costs half a round: not before
    for _ in range(38):
        if not _strong_probable_prime(n, d, r, rng.randrange(2, n - 1)):
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= n < psi_13 ~ 3.3e24;
    a larger n raises DomainError."""
    if n >= _PSI_13:
        raise DomainError(f"{n} >= psi_13 = {_PSI_13}; use is_prime_big")
    return _miller_rabin(n)


def is_prime_big(n: int) -> bool:
    """Primality for arbitrary integers.

    Exact below psi_13 ~ 3.3e24, as is_prime. From psi_13 up,
    Miller-Rabin with bases 2 and 3 and then 38 bases drawn, as they are
    needed, from a generator seeded by n, so repeat calls agree. Those
    verdicts are probable: the error probability is below 4**-40.
    """
    return _miller_rabin(n)


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
