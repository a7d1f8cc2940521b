"""Goldbach decompositions and the Bertrand-interval construction.

The headline scan verifies that every even n in (4, limit] splits into
two odd primes, recording the largest "smallest prime" seen. The
construction helpers reproduce the interval arithmetic around the
midpoint n/2: a prime rho_f placed in [n/2, n-2) determines f and k,
and prime pairs drawn from the two open windows always satisfy
n/2 + 1 < sum <= n. Whether a sampled pair hits n exactly is reported
as an observation, never assumed.
"""

from __future__ import annotations

import bisect
import enum
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CounterexampleFound, DomainError, check_range
from .ova import MODULUS, decompose, residue_sets
from .primality import (
    MAX_CONSTRUCT_N,
    is_prime,
    is_prime_big,
    odd_prime_segments,
    sieve_primes,
)

# The scan streams the primes, so time, not memory, bounds it: see scan.
MAX_SCAN_LIMIT = 10**9
# Largest limit for the CLI's witness file, one row per even n: on a
# 2-core x86-64 VM `goldbach scan --emit-witnesses` to a file on disk,
# start-up included, took 9.2-9.5 s for the 2,164,752,254 bytes at 2e8,
# peaking at 43.1 MB RSS, and 11.0 s for 3,304,266,132 bytes at 3e8.
MAX_WITNESS_LIMIT = 2 * 10**8
# Largest n accepted by interval_sum_check and symmetric_pair_check.
# On a 2-core x86-64 VM interval_sum_check(1e7) takes 0.31-0.34 s and
# peaks at 43 MB RSS (VmHWM): the prime array and one block of windows.
# 1e8 would take 3.9-4.6 s and 82 MB. symmetric_pair_check's docstring
# gives its cost.
MAX_INTERVAL_SUM_N = 10**7
MAX_SYMMETRIC_N = 10**8
# Evens per scan block. A block pays fixed work (its set-ups, the Python
# steps of its peel and gathers) however many n it holds, and its peel
# arrays, 512 KB at 2^18 (768 KB with on_block's counts), still fit a 2
# MB L2. On a 2-core x86-64 VM, in-process and interleaved (medians of
# 21 calls, 5 at 1e8), scan(1e7) / scan(1e8) / scan(2e6) with on_block
# took 15.0-15.8 / 172-191 / 10.3-13.2 ms in blocks of 2^18, against
# 15.5-15.9 / 170-201 / 11.9-13.0 ms in blocks of 2^19. interval_sum_check
# does not read it.
BLOCK_EVENS = 1 << 18
# f per block of interval_sum_check's Bertrand windows: blocks of 2^18
# made its 1e7 check no faster (0.37-0.43 against 0.36-0.45 s) and
# bigger (63 against 40 MB VmHWM).
_INTERVAL_BLOCK_F = 1 << 16
# Odd primes below this are peeled off each block with dense slices;
# the rest by gathers over the n still unresolved. There must be at
# most 255 of them (the uint8 count in _dense_peel); 256 keeps 53. On a
# 2-core x86-64 VM, in-process and interleaved, as for BLOCK_EVENS,
# scan(1e7) / scan(1e8) / scan(2e6) with on_block took 15.0-15.8 /
# 172-191 / 10.3-13.2 ms at 256, against 16.7-19.2 / 170-188 /
# 11.9-12.3 ms at 384, where the counts cost more. At 128 the gathers
# are left too many n: in a second series scan(1e7) and scan(1e8) took
# 1.5-2.0 times as long as at 256.
DENSE_PEEL_BELOW = 256
# Primes per gather in _block_smallest_p: each gather reads n - p for
# every n left and GATHER_CHUNK primes at once, and each n takes its
# first hit. On a 2-core x86-64 VM, in-process and interleaved,
# scan(1e7) took 18.4-19.2 ms in chunks of 32, level with 16, 64 and
# 128 (18.2-19.9 ms), where one gather per prime took 27.0-40.4 ms; at
# 1e8 32 took 208-216 ms against 212-219 ms at 64 and 234-279 at 128.
GATHER_CHUNK = 32
# The largest p a scan block reads from its window of the stream; see
# _smallest_p_blocks.
MAX_WINDOW_P = 1 << 15


class HalfParity(enum.Enum):
    ODD_HALF = "OddHalf"
    EVEN_HALF = "EvenHalf"


@dataclass(frozen=True)
class GoldbachWitness:
    n: int
    p: int
    q: int


@dataclass(frozen=True)
class GoldbachScanReport:
    limit: int
    checked: int
    max_smallest_p: int
    argmax_n: int
    failures: tuple[int, ...]
    four_prime_n: int | None
    four_prime_witness: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class BertrandConstruction:
    n: int
    rho_f: int
    f: int
    k: Fraction
    half_parity: HalfParity


@dataclass(frozen=True)
class IntervalSumReport:
    n: int
    sampled: int
    pairs_checked: int
    violations: tuple[tuple[int, int, int], ...]
    empty_windows: int
    exact_pairs: tuple[tuple[int, int, int], ...]

    @property
    def has_exact(self) -> bool:
        return bool(self.exact_pairs)


@dataclass(frozen=True)
class SymmetricPairReport:
    n: int
    exists_symmetric: bool
    k_values: tuple[int, ...]


@dataclass(frozen=True)
class CombinationReport:
    p1: int
    p2: int
    ova_sum: int
    gamma_sum: int
    candidates: tuple[int, ...]
    hits: tuple[int, ...]


def _check_even(name: str, n: int, minimum: int) -> None:
    if n % 2 != 0 or n < minimum:
        raise DomainError(f"{name} must be even and >= {minimum}, got {n}")


def _smallest_p_from(n: int, p0: int) -> int:
    """The smallest odd p >= p0 (p0 odd) with p <= n/2 and both p and
    n - p prime, by trial; 0 if there is none."""
    return next((p for p in range(p0, n // 2 + 1, 2)
                 if is_prime(p) and is_prime_big(n - p)), 0)


def decompose_even(n: int) -> GoldbachWitness:
    """Witness n = p + q over odd primes with the smallest possible p.

    p is found by trial from 3, one is_prime_big(n - p) a step, so n
    past MAX_CONSTRUCT_N raises BoundError before any test.
    """
    _check_even("n", n, 6)
    check_range("n", n, high=MAX_CONSTRUCT_N, bound="construction bound")
    p = _smallest_p_from(n, 3)
    if not p:
        raise CounterexampleFound(f"no Goldbach decomposition of {n}")
    return GoldbachWitness(n, p, n - p)


def check_scan_limit(limit: int) -> None:
    """Raise unless limit is a valid scan limit: even, >= 6, in bound."""
    _check_even("limit", limit, 6)
    check_range("limit", limit, high=MAX_SCAN_LIMIT, bound="scan bound")


def scan(
    limit: int,
    on_block: Callable[[int, np.ndarray], object] | None = None,
) -> GoldbachScanReport:
    """Verify all even n in (4, limit], tracking the largest smallest
    prime and collecting failures (which would be counterexamples).

    One pass over the evens in blocks of at most BLOCK_EVENS evens, cut
    where a segment ends. ``on_block``, if given, receives every block
    as ``(first_n, smallest_p)``, where ``smallest_p[i]`` is the
    smallest odd prime p with n - p an odd prime for n = first_n + 2i,
    or 0 if there is none. Without it no block reads off each n's p (see
    _block_smallest_p). The primes are streamed, so memory is one
    segment, its window and one block, whatever the limit: on a 2-core
    x86-64 VM `ova360 goldbach scan --limit 100000000` takes 0.34-0.36
    s and peaks at 35 MB RSS, interpreter and numpy included, and at
    MAX_SCAN_LIMIT = 1e9 it takes 2.4-2.7 s and 36 MB. With
    --emit-witnesses at MAX_WITNESS_LIMIT = 2e8 it takes 9.2-9.5 s and
    43.1 MB to a file on disk, and 6.5-7.5 s to /dev/null.

    The report also carries a four-odd-primes spot witness for the
    largest even n >= 12 in range, built as 3 + 3 + p + q from the
    scan's own witness for n - 6; this derives from the pair scan
    rather than an independent method. It is None if n - 6 failed.
    """
    check_scan_limit(limit)
    four_wit = None
    max_p, argmax_n, failures = -1, 6, []
    for first, block in _smallest_p_blocks(limit, on_block is not None, limit - 6):
        if on_block is not None:
            on_block(first, block.best)
        if block.top > max_p:
            max_p, argmax_n = block.top, first + 2 * block.top_at
        failures += (first + 2 * block.failed).tolist()
        if block.probe_p:
            four_wit = (3, 3, block.probe_p, limit - 6 - block.probe_p)
    return GoldbachScanReport(
        limit=limit,
        checked=(limit - 6) // 2 + 1,
        max_smallest_p=max_p,
        argmax_n=argmax_n,
        failures=tuple(failures),
        four_prime_n=limit if four_wit else None,
        four_prime_witness=four_wit,
    )


class _Block(NamedTuple):
    """What a scan reads of one block of evens, n = first_n + 2i."""

    top: int  # the largest smallest p in the block
    top_at: int  # the least i that has it
    failed: np.ndarray  # the i with no p, ascending
    probe_p: int  # the probed i's p; 0 if it has none or is not in the block
    best: np.ndarray | None  # every i's p (int64, 0 for none), or None


def _smallest_p_blocks(
    limit: int, every: bool, probe_n: int
) -> Iterator[tuple[int, _Block]]:
    """Yield (first_n, block) for consecutive blocks of the even n in
    [6, limit], summed up by _block_smallest_p with its every flag and
    probe_n as its probe.

    The odd numbers stream in from odd_prime_segments(limit). A block
    reads n - p for the odd primes p <= MAX_WINDOW_P, reach bits at most
    below its first n, so each segment's window is the reach bits below
    the segment, then the segment; the primes p are read from the same
    stream. Once a segment of bits start..end - 1 has streamed, the
    evens up to 2 * end + 2, whose largest n - 3 is bit end - 1, are
    complete, and those not yet yielded go out in blocks of at most
    BLOCK_EVENS that all read that window: blocks end at segment edges.
    Any n still unresolved when those primes run out is finished by
    _smallest_p_from's per-n trial, whose Miller-Rabin is exact at every
    scan limit. The largest smallest Goldbach prime below 4e18 is 9781
    (Oliveira e Silva, Herzog & Pardi, Math. Comp. 83, 2014), so at
    these scales the trial never runs.
    """
    reach = (MAX_WINDOW_P + 1) >> 1  # odds a block reads below its first n
    primes: list[int] = []  # the odd primes <= MAX_WINDOW_P streamed so far
    # buf[i] is bit start - reach + i. Every n a segment completes is at
    # least 2 * start + 4 (6 in the first), so its lowest read, bit
    # (n >> 1) - reach, is in the window: numpy would wrap a negative
    # index silently. The bits below 0 stand for negative odds and bit 0
    # for 1, none of them prime, so every n - p < 3 reads composite and
    # no read needs a guard.
    buf = None
    first = 6
    for start, seg in odd_prime_segments(limit):
        if buf is None:  # the first segment is the longest
            buf = np.zeros(reach + seg.size, dtype=bool)
        if start < reach:
            primes += (2 * (np.flatnonzero(seg[:reach - start]) + start) + 1).tolist()
        window = buf[:reach + seg.size]
        window[reach:] = seg
        top = min(2 * (start + seg.size) + 2, limit)
        while first <= top:
            last = min(first + 2 * (BLOCK_EVENS - 1), top)
            yield first, _block_smallest_p(first, last, window, start - reach,
                                           primes, every, probe_n)
            first = last + 2
        buf[:reach] = window[seg.size:]


def _block_smallest_p(
    first: int, last: int, window: np.ndarray, off: int, primes: list[int],
    every: bool, probe_n: int,
) -> _Block:
    """The smallest p of the evens first..last, reading bit b of the
    prime bitmap as window[b - off], as a _Block whose probe_p belongs
    to the even probe_n. Its best is every n's p when every is set, and
    otherwise None unless the block needed it for top.

    The primes below DENSE_PEEL_BELOW are peeled off the whole block
    (_dense_peel). The few n it leaves are resolved by gathers over the
    ascending primes, GATHER_CHUNK primes at a time: one gather reads
    n - p for every n left and every p of the chunk, each n takes its
    first hit, and the n with none go on to the next chunk. Those still
    left when the primes to last - 3 run out are resolved by trial.
    Every gathered or trial p exceeds every dense p, so once one n is
    resolved that way the block's top and its first n come from those
    alone, and the peel need not record which dense p resolved each n,
    so it may share its ANDs between primes (_dense_peel). Only the
    every mode, and a block where no n is resolved that way
    (the peel left none, or every n it left failed), count the dense
    primes tried per n, and read p off those counts by one int64 table
    lookup. The probed n walks the primes alone. On a 2-core x86-64 VM
    the 21 blocks of scan(1e7) spend 4.9-5.3 ms in the peel and 2.9-3.4
    ms in the gathers and the rest (medians of 15 calls); with on_block
    the peel takes 18.4-18.7 ms and the rest, mostly reading p off the
    counts, 18.6-19.0 ms.
    """
    m = (last - first) // 2 + 1
    half = first >> 1
    dense = primes[:bisect.bisect_left(primes, DENSE_PEEL_BELOW)]
    tried = np.zeros(m, dtype=np.uint8) if every else None
    left = np.flatnonzero(_dense_peel(half, m, window, off, dense, tried))
    found = np.zeros(left.size, dtype=np.int64)  # left[k]'s p, 0 for none
    rest = np.arange(left.size)  # the k no p has resolved yet
    qbase = half - off + left  # window index of n >> 1, every n left
    gathered = primes[len(dense):bisect.bisect_right(primes, last - 3)]
    for c in range(0, len(gathered), GATHER_CHUNK):
        if not rest.size:
            break
        ps = np.array(gathered[c:c + GATHER_CHUNK])
        # hits[r, j]: is n - ps[j] prime, for the r-th n left
        hits = window[qbase[:, None] - ((ps + 1) >> 1)]
        j = hits.argmax(axis=1)  # each row's first hit, or 0 if none
        hit = hits[np.arange(j.size), j]
        found[rest[hit]] = ps[j[hit]]
        miss = ~hit
        rest, qbase = rest[miss], qbase[miss]
    for k in rest.tolist():  # no p <= MAX_WINDOW_P works: try the larger p
        found[k] = _smallest_p_from(first + 2 * int(left[k]), (MAX_WINDOW_P + 1) | 1)
    best = None
    if every or not found.any():
        if tried is None:  # the top is a dense p: count them after all
            tried = np.zeros(m, dtype=np.uint8)
            _dense_peel(half, m, window, off, dense, tried)
        best = np.array(dense + [0], dtype=np.int64)[tried]
        best[left] = found
    if found.any():  # larger than every dense p
        k = int(np.argmax(found))
        top, top_at = int(found[k]), int(left[k])
    else:
        top_at = int(np.argmax(best))
        top = int(best[top_at])
    probe_p = 0
    if first <= probe_n <= last:  # the first p whose probe_n - p reads prime
        probe_p = next((p for p in primes if window[((probe_n - p) >> 1) - off]), 0)
        probe_p = probe_p or _smallest_p_from(probe_n, (MAX_WINDOW_P + 1) | 1)
    return _Block(top, top_at, left[found == 0], probe_p, best)


def _dense_peel(
    half: int, m: int, window: np.ndarray, off: int, dense: list[int],
    tried: np.ndarray | None,
) -> np.ndarray:
    """The mask of the m evens n from 2 * half for which no p in dense
    makes n - p an odd prime, reading bit b as window[b - off].

    Within a block the evens are consecutive, so for a fixed p the bits
    of n - p form one contiguous slice. The window's bits that the peel
    reads are inverted once, about m + 128 bytes, and each in-place AND
    of the mask with a slice of that composite copy drops the n whose
    n - p is prime. Without tried the ANDs may run in any order, so
    primes whose slices lie a fixed gap apart share one: the copy is
    ANDed in place with itself a gap on, and one slice of that stands
    for a pair of primes, and after a second gap for four (_peel_plan).
    The 53 primes below 256 take 2 such builds and 27 ANDs where one AND
    per prime took 53: on a 2-core x86-64 VM, interleaved, a block of
    2^18 evens took 234-273 µs against 414-480 µs. If tried (uint8, m)
    is given, the primes are peeled one at a time in ascending order,
    and one more in-place add per prime counts there the primes tried
    while n was unresolved: the index in dense of n's smallest dense p,
    or len(dense) if none (869-1179 µs a block).
    """
    if not dense:
        return np.ones(m, dtype=bool)
    top = (dense[-1] + 1) >> 1
    low = half - top  # bits low.. of every n - p
    # One allocation for both arrays: as two, the allocator gave them back
    # to the system after each block and the next block faulted them in
    # again (19,474 page faults in a first scan(1e8), against 1,165).
    scratch = np.empty(2 * m + top - 2, dtype=bool)
    unresolved, composite = scratch[:m], scratch[m:]
    unresolved[:] = True
    np.invert(window[low - off : half + m - 2 - off], out=composite)
    if tried is not None:
        for p in dense:
            o = top - ((p + 1) >> 1)  # bit of 2 * half - p, less low
            np.logical_and(unresolved, composite[o : o + m], out=unresolved)
            np.add(tried, unresolved.view(np.uint8), out=tried)
        return unresolved
    mask = composite
    for gap, starts in _peel_plan(tuple(dense)):
        if gap:  # in place: each byte reads itself and one gap on
            mask = np.logical_and(mask[:-gap], mask[gap:], out=mask[:-gap])
        for o in starts:
            np.logical_and(unresolved, mask[o : o + m], out=unresolved)
    return unresolved


@lru_cache(maxsize=8)
def _peel_plan(dense: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """How _dense_peel covers dense without counting: (gap, starts)
    levels, the first with gap 0. Level k peels its starts against mask
    k, where mask 0 is the composite copy and mask k is mask k - 1 ANDed
    with itself gap_k on, so each start o covers the offsets o plus any
    sum of the gaps up to k. The offset of p is top - (p + 1)/2, top =
    (dense[-1] + 1)/2, and each offset is covered once.

    gap 1 is the commonest distance between two offsets and gap 2 the
    commonest other one between the starts of such pairs; each level
    from the top down takes, ascending, every start whose offsets are
    all still uncovered. A level is kept only if some pair recurs, so
    no plan takes more passes (mask builds plus ANDs) than dense has
    primes: 29 for the 53 odd primes below 256, with gaps 15 and 6 (p
    and p + 30, p and p + 12).
    """
    top = (dense[-1] + 1) >> 1
    marks = np.zeros(top, dtype=np.int64)
    marks[[top - ((p + 1) >> 1) for p in dense]] = 1
    gaps = []
    while len(gaps) < 2:
        # lags[d - 1]: how many i have marks[i] and marks[i + d] set
        lags = np.correlate(marks, marks, "full")[marks.size:]
        lags[[g - 1 for g in gaps if g < marks.size]] = 0
        if not lags.size or lags.max() < 2:
            break
        gaps.append(int(np.argmax(lags)) + 1)
        marks = marks[:-gaps[-1]] & marks[gaps[-1]:]  # the pairs' starts
    left = {top - ((p + 1) >> 1) for p in dense}
    levels = []
    for k in range(len(gaps), -1, -1):
        shape = [0]
        for g in gaps[:k]:
            shape += [s + g for s in shape]
        starts = []
        for o in sorted(left):
            cover = {o + s for s in shape}
            if cover <= left:
                starts.append(o)
                left -= cover
        levels.append(((0, *gaps)[k], tuple(starts)))
    return tuple(levels[::-1])


def bertrand_construction(n: int) -> BertrandConstruction:
    """Largest prime rho_f in [n/2, n-2), with f and k solved from
    rho_f = n - (2f+1) and the parity-split k formula."""
    _check_even("n", n, 8)
    check_range("n", n, high=MAX_CONSTRUCT_N, bound="construction bound")
    half = n // 2
    rho_f = None
    for c in range(n - 3, half - 1, -1):
        if is_prime_big(c):
            rho_f = c
            break
    if rho_f is None:
        raise CounterexampleFound(f"no prime in [{half}, {n - 2})")
    f, rem = divmod(n - 1 - rho_f, 2)
    if rem:
        raise AssertionError(f"rho_f {rho_f} has wrong parity for n={n}")
    if half % 2 == 1:
        parity = HalfParity.ODD_HALF
        k = Fraction(n, 4) - Fraction(1, 2) - f
    else:
        parity = HalfParity.EVEN_HALF
        k = Fraction(n, 4) - f
    if not 0 < f <= Fraction(n, 4) - Fraction(1, 2):
        raise AssertionError(f"f={f} outside (0, n/4 - 1/2] for n={n}")
    return BertrandConstruction(n, rho_f, f, k, parity)


def _window_bounds(primes: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index ranges [lo, hi) of the ascending primes that lie in the
    open windows (w/2, w), one per w."""
    return np.searchsorted(primes, w // 2, "right"), np.searchsorted(primes, w, "left")


def _symmetric_ks(n: int) -> np.ndarray:
    """Ascending k whose pair about half = n/2, half +- 2k (odd half,
    k >= 0) or half +- (2k-1) (even half, k >= 1), is two odd primes.

    Counted from the odd numbers nearest half, the lower members run
    down from bit below and the upper members up from bit above of the
    odd-number stream to n. Bits 0..below are copied into one array of
    n/4 bytes as they stream; each segment's part from above on is then
    ANDed with the mirrored slice of that copy, which is complete in
    time because above >= below.
    """
    half = n // 2
    below = (half - 1) >> 1  # bit of the largest odd <= half
    above = half >> 1  # bit of the least odd >= half
    low = np.empty(below + 1, dtype=bool)
    ks = []
    for start, seg in odd_prime_segments(n):
        end = start + seg.size
        if start <= below:
            low[start:min(end, below + 1)] = seg[:below + 1 - start]
        lo, hi = max(start, above), min(end, above + below)
        if lo < hi:  # upper bit u pairs with lower bit below + above - u
            both = seg[lo - start:hi - start] & low[below + above - lo:below + above - hi:-1]
            ks.append(np.flatnonzero(both) + (lo - above))
    return np.concatenate(ks) + (1 - half % 2)


def interval_sum_check(n: int) -> IntervalSumReport:
    """Check n/2 + 1 < rho + q <= n for every prime pair drawn from the
    two open windows around n/2, for each admissible f.

    With k = n/4 - 1/2 - f (odd n/2) or n/4 - f (even n/2), an integer
    either way, the windows are (n/4 + 1/2 + k, n/2 + 1 + 2k) and
    (n/4 + 1/2 - k, n/2 + 1 - 2k): each is (w/2, w) for the integer w
    = n/2 + 1 +- 2k. Each window is an index range of one ascending
    prime array. The f are walked in blocks of _INTERVAL_BLOCK_F, and one
    binary search per side finds the block's windows, so their sizes
    and extremes are lookups and memory holds one block of them. The
    bound holds for all pairs of a window pair iff it holds for the two
    smallest and the two largest members.

    Violations cannot occur (the bound is an arithmetic consequence of
    the window endpoints); they are enumerated pair by pair when the
    extremes fail, rather than asserted, so an implementation fault
    would surface as data. Whether some pair sums to n exactly is
    reported as an observation. The upper window meets n minus the
    lower one in (n/2 - 1 + 2k, n/2 + 1 + 2k), so the one candidate is
    rho = n/2 + 2k: there are none when n/2 is even, and for odd n/2
    they are the pairs n/2 +- 2k that symmetric_pair_check finds, read
    from the same AND. pairs_checked is summed exactly, as a Python
    int: at 1e8 it would be 3.5e19, past 2**63. On a 2-core x86-64 VM
    a call takes 2 ms at 4e4, 0.03-0.05 s at 1e6, and 0.31-0.34 s with
    43 MB peak RSS (VmHWM) at MAX_INTERVAL_SUM_N = 1e7.
    """
    _check_even("n", n, 12)
    check_range("n", n, high=MAX_INTERVAL_SUM_N, bound="interval-sum bound")
    half = n // 2
    primes = sieve_primes(n)
    sampled, pairs, filled, violations = (n - 2) // 4, 0, 0, []
    for f0 in range(1, sampled + 1, _INTERVAL_BLOCK_F):
        k2 = 2 * (half // 2 - np.arange(f0, min(f0 + _INTERVAL_BLOCK_F, sampled + 1)))
        ulo, uhi = _window_bounds(primes, half + 1 + k2)  # the upper windows
        llo, lhi = _window_bounds(primes, half + 1 - k2)  # the lower windows
        full = (uhi > ulo) & (lhi > llo)
        # an empty window's ends may lie past the array: clip, full masks them
        least = primes.take(ulo, mode="clip") + primes.take(llo, mode="clip")
        most = primes.take(uhi - 1, mode="clip") + primes.take(lhi - 1, mode="clip")
        inside = ~full | ((least > half + 1) & (most <= n))
        # each product is below 2**63 and a block has fewer than 2**31, so
        # neither sum of their 32-bit halves overflows int64
        high, low = np.divmod((uhi - ulo) * (lhi - llo), 1 << 32)
        pairs += (int(high.sum()) << 32) + int(low.sum())
        filled += int(np.count_nonzero(full))
        for i in np.flatnonzero(~inside).tolist():
            us, ls = primes[ulo[i] : uhi[i]].tolist(), primes[llo[i] : lhi[i]].tolist()
            violations += [(f0 + i, rho, q) for rho in us for q in ls
                           if not half + 1 < rho + q <= n]
    ks = _symmetric_ks(n)[::-1].tolist() if half % 2 else []
    exact = [(half // 2 - k, half + 2 * k, half - 2 * k) for k in ks]
    return IntervalSumReport(
        n=n,
        sampled=sampled,
        pairs_checked=pairs,
        violations=tuple(violations),
        empty_windows=sampled - filled,
        exact_pairs=tuple(exact),
    )


def symmetric_pair_check(n: int) -> SymmetricPairReport:
    """Search for prime pairs placed symmetrically about n/2.

    For odd n/2 the members are n/2 +- 2k (k >= 0); for even n/2 they
    are n/2 +- (2k-1) (k >= 1), keeping both members odd. All working
    k up to n/4 are returned; existence is equivalent to n having a
    Goldbach decomposition. Both members are read from the odd-number
    stream to n: its lower half is copied as it streams, and each
    segment's upper part is ANDed with the mirrored copy
    (_symmetric_ks). At MAX_SYMMETRIC_N = 1e8 a call takes 0.16-0.22 s
    and peaks at 65 MB RSS (VmHWM) on a 2-core x86-64 VM; 1e9 would
    take 2.9 s and 307 MB, most of it the 250 MB copy and the 2.27M k.
    """
    _check_even("n", n, 6)
    check_range("n", n, high=MAX_SYMMETRIC_N, bound="symmetric-pair bound")
    ks = _symmetric_ks(n).tolist()
    return SymmetricPairReport(n, bool(ks), tuple(ks))


def average_of_two_primes(m: int) -> tuple[int, int]:
    """Primes (p, q) with p + q = 2m; the m=2 case uses (2, 2)."""
    check_range("m", m, 2)
    if m == 2:
        return (2, 2)
    w = decompose_even(2 * m)
    return (w.p, w.q)


def ova_combination_check(p1: int, p2: int) -> CombinationReport:
    """Residue combinations covering p1 + p2 + 2.

    candidates: residues a in C* whose complement to ova(p1)+ova(p2)+2
    is prime. hits: candidates a where a + 360*(gamma1+gamma2) is also
    prime. Non-empty hits is a conjecture, not a fact: empty hits do
    occur (e.g. the prime pair 1919881, 8440231), so callers must
    treat an empty tuple as a finding, never an error.
    """
    for p in (p1, p2):
        if not is_prime_big(p):
            raise DomainError(f"{p} is not prime")
    d1, d2 = decompose(p1), decompose(p2)
    total = d1.ova + d2.ova + 2
    gsum = d1.frequency + d2.frequency
    base = MODULUS * gsum
    cands = [
        a for a in sorted(residue_sets().Cstar)
        if total - a >= 2 and is_prime_big(total - a)
    ]
    hits = [a for a in cands if is_prime_big(a + base)]
    return CombinationReport(
        p1=p1, p2=p2, ova_sum=total, gamma_sum=gsum,
        candidates=tuple(cands), hits=tuple(hits),
    )
