"""Prime generation and primality testing.

Provides one segmented sieve over an arithmetic progression: over the
odd numbers it is streamed one segment at a time, which the prime list
and every scan read, the Mersenne exponent scan and the residue sets
included; matrix.density runs it over a residue line z + 360*G, and
matrix.residue_counts over the eight lines w + 30i of a mod-30 wheel,
with its base primes cut at the fourth root of x from 2e6 on.
Its base primes come from a shorter run of the same loop, so it is the
package's one sieve.
Also one Miller-Rabin body behind two entry points, and the factorial
construction of prime-free intervals together with the gap identity
around them. The body answers n < 256 from a table, rejects any larger
n sharing a factor with 251#, and raises BoundError past _MAX_TEST_BITS
before any round. Below psi_13 ~ 3.3e24 the bases come from the exact
bound table of Jaeschke (Math. Comp. 61, 1993) and Sorenson & Webster
(Math. Comp. 86, 2017), so a verdict there is exact. From psi_13 up it
is BPSW: a strong test to base 2 and a strong Lucas test with
Selfridge's parameters (Baillie & Wagstaff, Math. Comp. 35, 1980). No
composite is known to pass both, but no error bound is proven.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundError, CounterexampleFound, DomainError

# The strike loop holds one segment, so time, not memory, bounds it. On
# a 2-core x86-64 VM, `dirichlet --all` takes 2.0-2.3 s at 1e10 and
# 0.17-0.18 s at 1e9, start-up excluded, and peaks at 40 MB: its lines
# are struck only to the fourth root of x, 1.3-1.9 times faster than to
# the cube root, measured side by side. `germain` keeps this
# bound, though it reads only the primes to 4096, which already hold a
# safe prime in every class one can take: at 1e10 it takes 0.21-0.23 s
# and 31 MB, start-up included.
MAX_STREAM_LIMIT = 10**10
# sieve_primes lists every prime, and the `sieve` verb renders each one
# as text: at 1e8 (5.76M primes) it takes 0.7 s and peaks at 81 MB in
# every format on a 2-core x86-64 VM (peak RSS, stdout to a file,
# start-up included): the int64 primes (46 MB), filled in place segment
# by segment, with the text written part by part.
MAX_PRIME_LIST_LIMIT = 10**8
MAX_FACTORIAL_N = 40
# The primality body raises BoundError past this size, before any round.
# At 10000 bits, on a 2-core x86-64 VM, the base-2 round takes 2.8 s,
# which stops most composites, and the Lucas half a further 9.4 s. The
# largest value a bounded library call passes, 2**9942 - 1 (2993 digits:
# mersenne_properties' 2m + 1 at p = 9941), fits.
_MAX_TEST_BITS = 10_000
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
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
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


# These primes clear their multiples through a pre-sieve pattern rather
# than by striking, whatever the cut.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
# The primes 17 to 61 in groups, each of which clears its multiples by
# one AND with a pattern of period prod(group) rather than by striking,
# so terms up to the last of them are written as prime or not. The
# periods are 7429, 33263, 82861 and 190747.
_PATTERN_GROUPS = ((17, 19, 23), (29, 31, 37), (41, 43, 47), (53, 59, 61))
# 180 odds (one period of 2i+1 mod 360) times 2^13: 1.4 MB, which fits
# the 2 MB per-core L2 of the 2-core x86-64 VM it was measured on. Every
# segmented sieve, over the odd numbers or a residue line, uses it.
SEGMENT_ODDS = 180 << 13


def _check_sieve_limit(limit: int) -> None:
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > MAX_STREAM_LIMIT:
        raise BoundError(f"limit {limit} exceeds sieve bound {MAX_STREAM_LIMIT}")


@lru_cache(maxsize=16)
def _base_primes(step: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(ps, inv): the primes 13 < p < bound that do not divide step,
    ascending, and pow(step, -1, p) for each, as read-only int64 arrays.

    The primes come from the strike loop itself, through sieve_primes;
    that run asks only for the base primes to sqrt(bound), so the
    recursion ends at bound 2, whose list is empty. The inverses need
    no loop over the primes: with k = -pow(p, -1, step) % step, read
    from a table over the units mod step, step divides k*p + 1, and
    (k*p + 1) // step is pow(step, -1, p), as it is below p.

    bound is a power of two. An entry takes 16 bytes a prime. The entry
    points ask for step 2 up to bound 2^17, for step 30 (the wheel,
    struck to sqrt(x) below 2e6 and to x**(1/4) from there) up to 2^11
    and for step 360 (density at its rotation bound) up to 2^18, 368 KB;
    the entries of one step differ in bound, so together they hold
    under 1.3 MB. The 16 entries keep both the small step-2 entries of
    the recursion and a density loop over every bound to 2^10 cached.
    """
    ps = sieve_primes(bound - 1)
    ps = ps[(ps > _PRESIEVE_PRIMES[-1]) & (step % ps != 0)]
    units = [r for r in range(step) if math.gcd(r, step) == 1]
    tab = np.zeros(step, dtype=np.int64)
    tab[units] = [-pow(r, -1, step) % step for r in units]
    inv = (tab[ps % step] * ps + 1) // step
    ps.flags.writeable = inv.flags.writeable = False
    return ps, inv


@lru_cache(maxsize=8)
def _period_pattern(primes: tuple[int, ...]) -> np.ndarray:
    """Two periods of the pattern of the progression from 0 for primes:
    t[i] == (no q in primes divides i), period prod(primes), read-only.

    Two periods hold a whole period from any phase. The entries are the
    pre-sieve patterns of steps 2 and 30 or 360 (30 KB and 2 KB) and the
    four _PATTERN_GROUPS (15 KB to 381 KB), 660 KB in all.
    """
    pattern = np.ones(2 * math.prod(primes), dtype=bool)
    for q in primes:
        pattern[::q] = False
    pattern.flags.writeable = False
    return pattern


def _aligned(seg: np.ndarray, pattern: np.ndarray, period: int,
             o: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """seg's whole periods as rows and its tail, each paired with the
    slice of pattern from phase o that lines up with it."""
    whole = seg.size - seg.size % period
    return ((seg[:whole].reshape(-1, period), pattern[o:o + period]),
            (seg[whole:], pattern[o:o + seg.size - whole]))


def _sieve_segments(first: int, step: int, count: int, *,
                    cut: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The one strike loop, over the progression first + step*i for i
    in [0, count); step is even and coprime to first and to the primes
    17 to 61 (2, 30 and 360 are). Yield (start, seg) with seg[j] ==
    (first + step*(start+j) is prime) for consecutive segments of
    SEGMENT_ODDS terms, in one buffer that each segment overwrites.

    A prime p that divides step never divides a term. Each other base
    prime p <= sqrt(last term), and p <= cut when a cut is given,
    divides the terms with i = -first/step (mod p); p from 3 to 13 clear
    theirs through a pre-sieve pattern of period prod(p), which each
    segment is filled with whatever the cut, and every larger p strikes
    its class from the first term >= p*p, which spares p itself when it
    lies on the progression (Bays & Hudson, BIT 17, 1977). With a cut,
    a composite survives when all its prime factors exceed
    max(cut, 13); matrix.residue_counts subtracts those itself.

    The primes 17 to 61 are cleared by pattern instead, in the
    _PATTERN_GROUPS: each group whose last prime is a base prime and
    whose period is at most count clears the segment by one in-place
    AND of its rows, one period long, with the group's pattern, where
    its 3 strikes would each pass over the whole segment. A pattern
    also clears the group's own primes, and the terms up to 61 are
    written back as prime or not. The period rule keeps a short call
    from building a pattern it cannot use; a group past the cut or the
    root is struck as before, so a cut stays exact.

    What does not depend on first is built once and cached: the base
    primes with their inverses of step, per step and largest base prime
    rounded up to a power of two, so a class table is a few numpy
    operations; and two periods of each pattern, for the progression
    from 0, whose pattern for first starts at phase first/step (mod
    period). The pre-sieve pattern is broadcast into each segment's
    rows, so a segment is filled from two periods (30 KB at step 2),
    whatever its length.
    """
    size = SEGMENT_ODDS
    out = np.empty(min(size, count), dtype=bool)
    head = [v in _SMALL_PRIMES for v in range(first, _PATTERN_GROUPS[-1][-1] + 1, step)]
    root = math.isqrt(first + step * (count - 1))
    if cut is not None:
        root = min(root, cut)
    groups = []  # in order, while each is struck whole and fits count
    for group in _PATTERN_GROUPS:
        period = math.prod(group)
        if group[-1] > root or period > count:
            break
        groups.append(group)
    # (pattern, period, phase) of the pre-sieve, then of each group
    fills = []
    for group in (tuple(q for q in _PRESIEVE_PRIMES if step % q), *groups):
        period = math.prod(group)
        fills.append((_period_pattern(group), period, first * pow(step, -1, period) % period))
    ps, inv = _base_primes(step, 1 << root.bit_length())
    # the groups' primes are cleared, the rest to root struck
    skip = ps.searchsorted(groups[-1][-1], "right") if groups else 0
    stop = ps.searchsorted(root, "right")
    ps, inv = ps[skip:stop], inv[skip:stop]
    primes = ps.tolist()
    # the class each p strikes, and the index of its first term >= p*p
    cls = -(first % ps) * inv % ps
    from_i = np.maximum(-((first - ps * ps) // step), 0)
    for start in range(0, count, size):
        end = min(start + size, count)
        seg = out[:end - start]
        (pattern, period, phase), *ands = fills
        for part, row in _aligned(seg, pattern, period, (start + phase) % period):
            part[:] = row
        for pattern, period, phase in ands:
            for part, row in _aligned(seg, pattern, period, (start + phase) % period):
                np.logical_and(part, row, out=part)
        n = from_i.searchsorted(end)  # the p with a term >= p*p before end
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

    Each segment is filled with the pre-sieve pattern, which already
    clears the multiples of 3, 5, 7, 11 and 13, ANDed with the patterns
    of the groups of primes from 17 to 61 (those the limit reaches), and
    is then struck by the base primes from there to sqrt(limit), so it
    stays in cache while it is sieved. seg is one buffer of SEGMENT_ODDS
    bytes, overwritten by the next segment: copy what must outlive the
    iteration step. Memory is that buffer, the patterns (at most 660 KB)
    and the base primes to sqrt(limit), which stay cached, whatever the
    limit. The limit is checked here, before anything is sieved.
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
    cut = period - start % period
    return np.concatenate((cols[cut:], cols[:cut]))


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array. limit >= 0."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit > MAX_PRIME_LIST_LIMIT:
        raise BoundError(f"limit {limit} exceeds prime list bound {MAX_PRIME_LIST_LIMIT}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser & Schoenfeld 1962); the
    # pages past the count are never written, so they are never mapped in
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    out[0] = 2
    count = 1
    for start, seg in odd_prime_segments(limit):
        # index i is 2(start+i)+1
        odd = np.flatnonzero(seg)
        part = out[count:count + odd.size]
        np.multiply(odd, 2, out=part)
        part += 2 * start + 1
        count += odd.size
    return out[:count]


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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters: D is the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.
    With n + 1 = d * 2**s and d odd, n passes when U_d = 0 or
    V_(d*2**r) = 0 (mod n) for some 0 <= r < s. n is odd, above 256 and
    free of the primes below it.

    A square n is rejected first: (D/n) is then never -1, so the search
    for D would not end. V_d, V_(d+1) and Q**d come from one ladder over
    the bits of d, and U_d = 0 iff 2 V_(d+1) = V_d, because
    D U_k = 2 V_(k+1) - P V_k and D is prime to n.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:  # gcd(D, n) > 1 with |D| < n
        return False
    q = (1 - D) // 4 % n
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    v, w, qk = 1, (1 - 2 * q) % n, q  # V_1, V_2 and Q**1
    for bit in bin(d)[3:]:
        if bit == "1":  # k -> 2k + 1
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * q) % n, qk * qk * q % n
        else:  # k -> 2k
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if (2 * w - v) % n == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _miller_rabin(n: int) -> bool:
    """The body behind is_prime and is_prime_big: exact below psi_13,
    BPSW from there up."""
    if n < 256:
        return n in _SMALL_PRIMES
    if n.bit_length() > _MAX_TEST_BITS:
        raise BoundError(f"n has {n.bit_length()} bits, past the primality "
                         f"bound of {_MAX_TEST_BITS} bits")
    if math.gcd(n, _PRIMORIAL_251) != 1:
        return False
    d, r = _odd_part(n)
    for bound, bases in _BASES_BELOW:
        if n < bound:
            break
    else:
        bases = (2,)
    for a in bases:
        if not _strong_probable_prime(n, d, r, a):
            return False
    return n < _PSI_13 or _strong_lucas_probable_prime(n)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= n < psi_13 ~ 3.3e24;
    a larger n raises DomainError."""
    if n >= _PSI_13:
        raise DomainError(f"{n} >= psi_13 = {_PSI_13}; use is_prime_big")
    return _miller_rabin(n)


def is_prime_big(n: int) -> bool:
    """Primality for integers of up to 10000 bits; a larger n raises
    BoundError before any round.

    Exact below psi_13 ~ 3.3e24, as is_prime. From psi_13 up it is
    BPSW: a strong test to base 2, then a strong Lucas test with
    Selfridge's parameters. No composite is known to pass both, but
    that is not proven, so no error bound is given.
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
