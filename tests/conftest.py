"""Shared fixtures. The trial-division oracle is deliberately naive and
independent of the package internals."""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


@pytest.fixture(scope="session")
def oracle_primes_10k() -> list[int]:
    return trial_division_primes(10**4)


@pytest.fixture(scope="session")
def oracle_prime_set_10k(oracle_primes_10k) -> set[int]:
    return set(oracle_primes_10k)


def eratosthenes_primes(limit: int) -> list[int]:
    """The primes <= limit by a sieve of Eratosthenes over a plain list,
    independent of numpy and of the package."""
    is_p = [True] * (limit + 1)
    is_p[:2] = [False] * min(2, limit + 1)
    for d in range(2, math.isqrt(limit) + 1):
        if is_p[d]:
            is_p[d * d :: d] = [False] * len(range(d * d, limit + 1, d))
    return [n for n, flag in enumerate(is_p) if flag]


def smallest_goldbach_p(limit: int) -> dict[int, int]:
    """For every even n in [6, limit], the smallest odd prime p with
    n - p an odd prime, by search over a list sieve's primes."""
    odd_primes = eratosthenes_primes(limit)[1:]
    prime_set = set(odd_primes)
    out = {}
    for n in range(6, limit + 1, 2):
        out[n] = next(p for p in odd_primes if n - p in prime_set)
    return out


@pytest.fixture(scope="session")
def oracle_goldbach_p() -> dict[int, int]:
    # covers limits up to two blocks past the second block boundary
    from ova360.goldbach import BLOCK_EVENS

    return smallest_goldbach_p(6 + 4 * BLOCK_EVENS + 16)


@pytest.fixture
def bitmap_without_three(monkeypatch):
    """Make the Goldbach scan read 3 as composite, so that 6 = 3 + 3
    (and 8 = 3 + 5) have no decomposition: an injected finding."""
    from ova360 import goldbach, primality

    def without_three(limit):
        for start, seg in primality.odd_prime_segments(limit):
            if start <= 1 < start + seg.size:
                seg[1 - start] = False
            yield start, seg

    monkeypatch.setattr(goldbach, "odd_prime_segments", without_three)


def plain_lucas_lehmer(p: int) -> bool:
    """2**p - 1 is prime, by the Lucas-Lehmer squaring loop alone; p an
    odd prime."""
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def fraction_interval_sum_check(n: int, prime_set: set[int]):
    """goldbach.interval_sum_check computed the long way: Fraction
    window endpoints, a primality lookup per integer, and the bound and
    exactness checked for every pair on its own (as one outer sum).
    prime_set holds every prime below n."""
    from ova360.goldbach import IntervalSumReport

    def primes_in_open(lo: Fraction, hi: Fraction) -> list[int]:
        first = int(lo) + 1
        last = -int(-hi) - 1  # largest integer strictly below hi
        return [m for m in range(max(first, 2), last + 1) if m in prime_set]

    half = Fraction(n, 2)
    quarter = Fraction(n, 4)
    odd_half = (n // 2) % 2 == 1
    fs = range(1, int(quarter - Fraction(1, 2)) + 1)
    pairs = empty = 0
    violations, exact = [], []
    for f in fs:
        k = quarter - Fraction(1, 2) - f if odd_half else quarter - f
        upper = primes_in_open(quarter + Fraction(1, 2) + k, half + 1 + 2 * k)
        lower = primes_in_open(quarter + Fraction(1, 2) - k, half + 1 - 2 * k)
        if not upper or not lower:
            empty += 1
            continue
        # every pair's sum, rows rho and columns q in ascending order;
        # an integer s exceeds half + 1 iff it exceeds floor(half + 1)
        sums = np.add.outer(upper, lower)
        pairs += sums.size
        outside = (sums <= math.floor(half + 1)) | (sums > n)
        violations += [(f, upper[i], lower[j]) for i, j in zip(*np.nonzero(outside))]
        exact += [(f, upper[i], lower[j]) for i, j in zip(*np.nonzero(sums == n))]
    return IntervalSumReport(
        n=n, sampled=len(fs), pairs_checked=pairs, violations=tuple(violations),
        empty_windows=empty, exact_pairs=tuple(exact),
    )


@pytest.fixture(scope="session")
def reference_lucas_lehmer():
    return plain_lucas_lehmer


def loop_interval_sum_check(n: int):
    """goldbach.interval_sum_check as a loop over f: both windows'
    primes listed from the reference bitmap to n, the extremes tested,
    every pair enumerated if they fail, and each upper prime looked up
    in a set of the lower ones."""
    from ova360.goldbach import IntervalSumReport

    def window(bitmap, w):
        # primes strictly between w/2 and w, ascending
        first, last = w // 2 + 1, w - 1
        lo = first >> 1  # bitmap index of the least odd >= first
        odd = 2 * (np.flatnonzero(bitmap[lo : ((last - 1) >> 1) + 1]) + lo) + 1
        return ([2] if first <= 2 <= last else []) + odd.tolist()

    half = n // 2
    fs = range(1, (n - 2) // 4 + 1)
    bitmap = segmented_odd_prime_bitmap(n)
    pairs = empty = 0
    violations, exact = [], []
    for f in fs:
        k = half // 2 - f
        upper = window(bitmap, half + 1 + 2 * k)
        lower = window(bitmap, half + 1 - 2 * k)
        if not upper or not lower:
            empty += 1
            continue
        pairs += len(upper) * len(lower)
        if not (half + 1 < upper[0] + lower[0] and upper[-1] + lower[-1] <= n):
            violations += [(f, rho, q) for rho in upper for q in lower
                           if not half + 1 < rho + q <= n]
        in_lower = set(lower)
        exact += [(f, rho, n - rho) for rho in upper if n - rho in in_lower]
    return IntervalSumReport(
        n=n, sampled=len(fs), pairs_checked=pairs, violations=tuple(violations),
        empty_windows=empty, exact_pairs=tuple(exact),
    )


@pytest.fixture(scope="session")
def reference_interval_sum_check():
    return fraction_interval_sum_check


@pytest.fixture(scope="session")
def reference_interval_sum_loop():
    return loop_interval_sum_check


def segmented_odd_prime_bitmap(limit: int, segment_odds: int = 1 << 22) -> np.ndarray:
    """The joined segments of primality.odd_prime_segments without the
    pre-sieve: a plain odd-only base sieve to sqrt(limit), then segments
    that start as all ones, are struck by every odd base prime and are
    copied into one result. b[i] == (2i+1 is prime)."""
    n_odds = (limit + 1) // 2
    root = max(math.isqrt(limit), 7)
    base = np.ones((root + 1) // 2, dtype=bool)
    base[0] = False
    for i in range(1, math.isqrt(root) // 2 + 1):
        if base[i]:
            base[(2 * i + 1) ** 2 // 2 :: 2 * i + 1] = False
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


def gathered_residue_counts(x: int) -> tuple[int, ...]:
    """matrix.residue_counts by gathering: the indices of the primes in
    the reference bitmap, 2i+1 for each, then a bincount mod 360."""
    counts = np.zeros(360, dtype=np.int64)
    if x < 2:
        return tuple(counts.tolist())
    bm = segmented_odd_prime_bitmap(x)
    chunk = 1 << 22
    for s in range(0, bm.size, chunk):
        vals = 2 * (np.flatnonzero(bm[s:s + chunk]) + s) + 1
        counts += np.bincount(vals % 360, minlength=360)
    counts[2] += 1
    return tuple(counts.tolist())


def gathered_germain_residues(limit: int) -> frozenset[int]:
    """ova.germain_residues by gathering: for each odd prime q = 2i+1
    of the reference bitmap with 2q+1 <= limit, read bit 2i+1."""
    bm = segmented_odd_prime_bitmap(limit)
    idx = np.flatnonzero(bm)
    idx = idx[4 * idx + 3 <= limit]
    safe = idx[bm[2 * idx + 1]]
    return frozenset(((4 * safe + 3) % 360).tolist()) | {5}


@pytest.fixture(scope="session")
def reference_odd_prime_bitmap():
    return segmented_odd_prime_bitmap


@pytest.fixture(scope="session")
def reference_residue_counts():
    return gathered_residue_counts


@pytest.fixture(scope="session")
def reference_germain_residues():
    return gathered_germain_residues


def whole_bitmap_residue_counts(x: int) -> tuple[int, ...]:
    """matrix.residue_counts on one whole reference bitmap to x,
    folded by 180 with the short last row added on top."""
    counts = np.zeros(360, dtype=np.int64)
    if x < 2:
        return tuple(counts.tolist())
    bm = segmented_odd_prime_bitmap(x)
    whole = bm.size - bm.size % 180
    cols = np.count_nonzero(bm[:whole].reshape(-1, 180), axis=0)
    cols[:bm.size - whole] += bm[whole:]
    counts[1::2] = cols
    counts[2] += 1
    return tuple(counts.tolist())


def whole_bitmap_germain_residues(limit: int) -> frozenset[int]:
    """ova.germain_residues on one whole reference bitmap to limit:
    the safe-prime mask bm[:m] & bm[1:2m:2], folded by 90."""
    bm = segmented_odd_prime_bitmap(limit)
    m = (limit - 3) // 4 + 1
    safe = bm[:m] & bm[1:2 * m:2]
    whole = m - m % 90
    hits = safe[:whole].reshape(-1, 90).any(axis=0)
    hits[:m - whole] |= safe[whole:]
    return frozenset(((4 * np.flatnonzero(hits) + 3) % 360).tolist()) | {5}


def _whole_bitmap_smallest_p_blocks(limit: int, bitmap: np.ndarray):
    """(first_n, smallest_p) per block of goldbach.BLOCK_EVENS evens,
    every n - p read from one whole bitmap and the primes p grown
    lazily from its head."""
    from ova360.goldbach import BLOCK_EVENS, DENSE_PEEL_BELOW

    dense = [2 * i + 1 for i in range(1, min(DENSE_PEEL_BELOW >> 1, bitmap.size))
             if bitmap[i]]
    sparse: list[int] = []
    read = DENSE_PEEL_BELOW >> 1
    for first in range(6, limit + 1, 2 * BLOCK_EVENS):
        last = min(first + 2 * (BLOCK_EVENS - 1), limit)
        m = (last - first) // 2 + 1
        half = first >> 1
        best = np.zeros(m, dtype=np.int64)
        for p in dense:
            lo = half - ((p + 1) >> 1)
            skip = max(1 - lo, 0)
            if skip >= m:
                break
            rows = best[skip:]
            rows[bitmap[lo + skip : lo + m] & (rows == 0)] = p
        left = np.flatnonzero(best == 0)
        qbase = half + left
        k = 0
        while left.size:
            if k == len(sparse):
                if read >= bitmap.size:
                    break
                stop = min(2 * read + 4096, bitmap.size)
                sparse += (2 * (np.flatnonzero(bitmap[read:stop]) + read) + 1).tolist()
                read = stop
                continue
            p = sparse[k]
            k += 1
            if p > last - 3:
                break
            qi = qbase - ((p + 1) >> 1)
            if p > first - 3:
                hit = bitmap[np.maximum(qi, 0)] & (qi >= 1)
            else:
                hit = bitmap[qi]
            best[left[hit]] = p
            miss = ~hit
            left, qbase = left[miss], qbase[miss]
        yield first, best


def masked_scatter_block_smallest_p(first, last, window, off, primes):
    """goldbach._block_smallest_p with its dense peel as one compare, one
    AND and one boolean-mask scatter of p into an int64 array per prime;
    the gathers and the trial fallback are the module's own."""
    import bisect

    from ova360 import goldbach

    m = (last - first) // 2 + 1
    half = first >> 1
    best = np.zeros(m, dtype=np.int64)
    n_dense = bisect.bisect_left(primes, goldbach.DENSE_PEEL_BELOW)
    for p in primes[:n_dense]:
        lo = half - ((p + 1) >> 1)
        skip = max(1 - lo, 0)
        if skip >= m:
            break
        rows = best[skip:]
        rows[window[lo + skip - off : lo + m - off] & (rows == 0)] = p
    left = np.flatnonzero(best == 0)
    qbase = half - off + left
    for p in primes[n_dense:]:
        if not left.size or p > last - 3:
            break
        qi = qbase - ((p + 1) >> 1)
        if p > first - 3:
            hit = window[np.maximum(qi, 0)] & (qi >= 1)
        else:
            hit = window[qi]
        best[left[hit]] = p
        miss = ~hit
        left, qbase = left[miss], qbase[miss]
    for j in left.tolist():
        best[j] = goldbach._smallest_p_from(first + 2 * j,
                                            (goldbach.MAX_WINDOW_P + 1) | 1)
    return best


@pytest.fixture(scope="session")
def reference_block_smallest_p():
    return masked_scatter_block_smallest_p


def whole_bitmap_scan(limit: int, on_block=None):
    """goldbach.scan on one whole reference bitmap to limit, which it
    reads for every n - p and every p; limit must be a valid scan
    limit."""
    from ova360.goldbach import GoldbachScanReport

    four_j = (limit - 12) // 2
    four_wit = None
    max_p, argmax_n, failures = -1, 6, []
    bitmap = segmented_odd_prime_bitmap(limit)
    for first, best in _whole_bitmap_smallest_p_blocks(limit, bitmap):
        if on_block is not None:
            on_block(first, best)
        i = int(np.argmax(best))
        if best[i] > max_p:
            max_p, argmax_n = int(best[i]), first + 2 * i
        if not best.all():
            failures += (first + 2 * np.flatnonzero(best == 0)).tolist()
        j = four_j - (first - 6) // 2
        if 0 <= j < best.size and best[j]:
            p = int(best[j])
            four_wit = (3, 3, p, limit - 6 - p)
    return GoldbachScanReport(
        limit=limit,
        checked=(limit - 6) // 2 + 1,
        max_smallest_p=max_p,
        argmax_n=argmax_n,
        failures=tuple(failures),
        four_prime_n=limit if four_wit else None,
        four_prime_witness=four_wit,
    )


@pytest.fixture(scope="session")
def reference_whole_bitmap_counts():
    return whole_bitmap_residue_counts


@pytest.fixture(scope="session")
def reference_whole_bitmap_germain():
    return whole_bitmap_germain_residues


@pytest.fixture(scope="session")
def reference_whole_bitmap_scan():
    return whole_bitmap_scan


def one_and_symmetric_ks(n: int) -> tuple[int, ...]:
    """goldbach._symmetric_ks on one whole reference bitmap to n: the
    lower members down one reversed slice and the upper members up one
    forward slice, so one AND finds every k."""
    bitmap = segmented_odd_prime_bitmap(n)
    half = n // 2
    below = (half - 1) >> 1  # bit of the largest odd <= half
    above = half >> 1  # bit of the least odd >= half
    both = bitmap[below:0:-1] & bitmap[above : above + below]
    return tuple((np.flatnonzero(both) + (1 - half % 2)).tolist())


@pytest.fixture(scope="session")
def reference_symmetric_ks():
    return one_and_symmetric_ks


def line_prime_bits(ova: int, rotations: int, segment: int = 1 << 20) -> np.ndarray:
    """matrix.density's line by its own strike loop: b[G - 1] == (ova +
    360*G is prime) for G in [1, rotations], ova coprime to 360. Each
    base prime p >= 7 strikes G = -ova/360 (mod p) across the whole
    line, segment rotations at a time, and the base primes that lie on
    the line are then restored."""
    bm = segmented_odd_prime_bitmap(math.isqrt(ova + 360 * rotations))
    steps = 2 * np.flatnonzero(bm).astype(np.int64) + 1
    steps = steps[steps > 5]
    primes = steps.tolist()
    starts = np.array([-ova * pow(360, -1, p) % p for p in primes], dtype=np.int64)
    own = (steps[steps % 360 == ova] - ova) // 360
    own = own[own >= 1]
    out = np.empty(rotations, dtype=bool)
    for lo in range(1, rotations + 1, segment):
        hi = min(lo + segment, rotations + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p, off in zip(primes, ((starts - lo) % steps).tolist()):
            seg[off::p] = False
        seg[own[(own >= lo) & (own < hi)] - lo] = True
        out[lo - 1:hi - 1] = seg
    return out


@pytest.fixture(scope="session")
def reference_line_prime_bits():
    return line_prime_bits


def _stringify(obj):
    """Exact quantities become strings; structure is preserved."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.int64:
        return _stringify(obj.tolist())
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _stringify(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_stringify(v) for v in seq]
    return obj


def stringify_dump_json(payload) -> str:
    """The CLI's JSON text the way it was first rendered: every exact
    quantity stringified in a copy of the payload, then json.dumps. An
    int64 array is rendered as its list."""
    return json.dumps(_stringify(payload), indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def reference_dump_json():
    return stringify_dump_json


def percent_witness_rows(first: int, best: np.ndarray) -> str:
    """render.witness_rows by "%d,%d,%d\\n" formatting of every row."""
    ns = first + 2 * np.arange(best.size, dtype=np.int64)
    found = best != 0
    rows = np.empty((int(found.sum()), 3), dtype=np.int64)
    rows[:, 0] = ns[found]
    rows[:, 1] = best[found]
    rows[:, 2] = rows[:, 0] - rows[:, 1]
    return "%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())


@pytest.fixture(scope="session")
def reference_witness_rows():
    return percent_witness_rows


def compress_int_text(cols, seps, chunk: int = 1 << 16) -> str:
    """render.int_text as it was before it rendered into reused buffers:
    for non-negative int64 columns, fixed-width 4-digit groups and a
    mask of the bytes to keep, which one np.compress per block of chunk
    rows applies; separators must be ASCII."""
    n = len(cols[0])
    if not n:
        return ""
    q = np.arange(10**4)
    table = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    width = 1 + (q >= 10) + (q >= 100) + (q >= 1000)
    last = np.arange(4) >= 4 - width[:, None]
    lead = last.copy()
    lead[0] = False
    digits, lead, last = (t.astype(np.uint8).view(np.uint32).ravel()
                          for t in (table + ord("0"), lead, last))
    layout, width = [], 0  # (column, 4-digit groups, first byte, separator)
    for c, s in zip(cols, seps):
        groups = (len(str(int(c.max()))) + 3) // 4
        layout.append((c, groups, width, s))
        width += 4 * groups + len(s)
    rows = min(n, chunk)
    text = np.empty((rows, width), np.uint8)
    keep = np.ones((rows, width), bool)
    for _, groups, a, s in layout:
        end = a + 4 * groups
        text[:, end:end + len(s)] = np.frombuffer(s.encode("ascii"), np.uint8)
    every = np.uint32(0x01010101)
    parts = []
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        for c, groups, a, _ in layout:
            v = c[start:start + m]
            for k in range(groups - 1, -1, -1):  # least significant first
                cell = slice(a + 4 * k, a + 4 * k + 4)
                mask = last if k == groups - 1 else lead
                if k:
                    high = v // 10**4
                    v, r = high, v - high * 10**4
                    kept = np.where(high > 0, every, mask[r])
                else:
                    r, kept = v, mask[v]
                text[:m, cell].view(np.uint32)[:, 0] = digits[r]
                keep[:m, cell].view(np.uint32)[:, 0] = kept
        parts.append(np.compress(keep[:m].ravel(), text[:m].ravel()).tobytes())
    return b"".join(parts).decode("ascii")


@pytest.fixture(scope="session")
def reference_int_text():
    return compress_int_text
