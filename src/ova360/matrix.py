"""Prime-indicator matrices per residue class and density diagnostics.

A k x k matrix for residue z marks which rotations G = 1..k**2 make
z + 360*G prime. Densities are exact rationals, counted by the one
segmented sieve of primality, run over the residue line z + 360*G
itself rather than the odd numbers: memory is one segment of G values
plus the base primes up to sqrt(z + 360*R), never a bitmap of every
odd number below the line's top. The Dirichlet-style diagnostic
compares each class's prime count against the equidistribution
prediction (x/ln x)/96; the counts come from Legendre's phi, the
numbers free of the primes to the fourth root of x, carried over the
96 classes at once by a recursion that never walks [0, x]; the
products of two and of three larger primes it leaves are then
subtracted class by class (Lehmer's split), from the same sieve's
stream of the odd primes.
Determinants are computed exactly over the integers (Bareiss
fraction-free elimination) so invertibility gets an exact verdict
instead of a floating-point guess: these matrices are not invertible
in general (residue 337 gives determinant 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import BoundError, DomainError
from .ova import MODULUS, residue_sets
from .primality import (
    _check_sieve_limit,
    _sieve_segments,
    is_prime_big,
    odd_prime_segments,
    sieve_primes,
)

# density(): the largest rotation count accepted; see there for the
# measured cost.
MAX_DENSITY_ROTATIONS = 10**8
# build_matrix: largest start and k accepted; see there for the measured
# cost (matrix_stats' Bareiss elimination grows as k**3).
MAX_MATRIX_START = 10**100
MAX_MATRIX_K = 100
_SINGLETONS = (2, 3, 5)
# residue_counts reads the numbers free of these primes off a table of
# one period, 360 * 1001, per class, so it never splits on them
_TABLE_PRIMES = (7, 11, 13)
_TABLE_TERMS = math.prod(_TABLE_PRIMES)
# _rough_counts' nodes per chunk: a chunk's rows and their indices are
# _PHI_CHUNK x 96 int32, 384 KB each. In-process at 1e10, 2^10 took
# 0.26 s against 0.31 s for 2^9 and 0.25-0.32 s for 2^11 and 2^12,
# whose frontier peaked 1.2 and 7 MB higher
_PHI_CHUNK = 1 << 10
# _product_counts' rows per step, of primes to sqrt(x) or of pair ends
# past it: a step's table is _STEP_ROWS x 96 int64, 768 KB. 2^10 took
# 5.3 ms at 1e8 against 6.0-6.6 ms for 2^11 to 2^13, level at 1e9
_STEP_ROWS = 1 << 10
# the 96 classes mod 360 that hold the primes past 5; the index of each
# residue among them (0 off them); and _COFACTOR[a, c], the b with
# _UNITS[a] * _UNITS[b] = _UNITS[c] (mod 360), a permutation in c as
# the units form a group, as a flat index a * 96 + b
_UNITS = np.array([r for r in range(MODULUS) if math.gcd(r, MODULUS) == 1],
                  dtype=np.int64)
_UNIT_INDEX = np.zeros(MODULUS, dtype=np.intp)
_UNIT_INDEX[_UNITS] = np.arange(_UNITS.size)
_COFACTOR = _UNIT_INDEX[np.outer(_UNITS, _UNITS) % MODULUS].argsort(axis=1)
_COFACTOR += _UNITS.size * np.arange(_UNITS.size)[:, None]
# the class index of the odd number 2i+1, by i mod 180
_ODD_PERIOD = MODULUS // 2
_ODD_CLASS = _UNIT_INDEX[2 * np.arange(_ODD_PERIOD) + 1].astype(np.int8)


@dataclass(frozen=True)
class OvaMatrix:
    ova: int
    k: int
    start: int
    bits: tuple[tuple[int, ...], ...]

    def row(self, i: int) -> tuple[int, ...]:
        return self.bits[i - 1]


@dataclass(frozen=True)
class MatrixStats:
    ones: int
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]
    determinant: int
    nonsingular_over_rationals: bool


@dataclass(frozen=True)
class DensityReport:
    x: int
    ova: int
    count: int
    ratio: float | None


def _require_cstar(ova: int) -> None:
    if ova not in residue_sets().Cstar:
        raise DomainError(f"residue {ova} not in C*")


def build_matrix(ova: int, k: int, start: int = 1) -> OvaMatrix:
    """k x k indicator grid: entry (i, j) is 1 iff ova + 360*G is
    prime at rotation G = start - 1 + k*(i-1) + j (1-based i, j).

    Each of the k**2 entries is one primality test, whose cost grows
    with the size of start: at k = 60 a call takes 0.04 s at start 1e9,
    0.1 s at 1e18, 0.4-0.7 s at MAX_MATRIX_START = 1e100 and 12-14 s at
    1e400 on a 2-core x86-64 VM. At start 1, build plus matrix_stats take
    0.11 s at MAX_MATRIX_K = 100, 1.4 s at k = 200 and 3.0 s at 250;
    at start 1e100, 1.5 s at k = 100 and 6.5 s at 200. k or start past
    its bound raises BoundError before any test.
    """
    _require_cstar(ova)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > MAX_MATRIX_K:
        raise BoundError(f"k {k} exceeds bound {MAX_MATRIX_K}")
    if start < 1:
        raise DomainError(f"start must be >= 1, got {start}")
    if start > MAX_MATRIX_START:
        raise BoundError(f"start {start} exceeds bound {MAX_MATRIX_START}")
    rows = []
    for i in range(1, k + 1):
        base = start - 1 + k * (i - 1)
        rows.append(tuple(
            int(is_prime_big(ova + MODULUS * (base + j)))
            for j in range(1, k + 1)
        ))
    return OvaMatrix(ova, k, start, tuple(rows))


def _bareiss_determinant(bits: tuple[tuple[int, ...], ...]) -> int:
    """Fraction-free elimination; exact for integer matrices."""
    n = len(bits)
    m = [list(r) for r in bits]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def matrix_stats(m: OvaMatrix) -> MatrixStats:
    arr = np.array(m.bits, dtype=np.int64)
    det = _bareiss_determinant(m.bits)
    return MatrixStats(
        ones=int(arr.sum()),
        row_sums=tuple(arr.sum(axis=1).tolist()),
        col_sums=tuple(arr.sum(axis=0).tolist()),
        determinant=det,
        nonsingular_over_rationals=det != 0,
    )


def density(ova: int, rotations: int) -> Fraction:
    """Exact fraction of rotations G in [1, rotations] with
    ova + 360*G prime.

    The line ova + 360*G, G >= 1, is sieved directly by the same
    segmented sieve as the odd numbers, SEGMENT_ODDS rotations at a
    time: each base prime p <= sqrt(ova + 360*rotations), p >= 7,
    clears the rotations G = -ova/360 (mod p) from the first term >= p*p
    on, so a base prime on the line itself survives. Memory is one
    segment plus the base primes: at MAX_DENSITY_ROTATIONS = 1e8
    `ova360 density` takes 0.63-0.67 s and 35 MB peak RSS, start-up
    included, on a 2-core x86-64 VM.
    """
    _require_cstar(ova)
    if rotations < 1:
        raise DomainError(f"rotations must be >= 1, got {rotations}")
    if rotations > MAX_DENSITY_ROTATIONS:
        raise BoundError(
            f"rotations {rotations} exceeds bound {MAX_DENSITY_ROTATIONS}")
    if math.gcd(ova, MODULUS) > 1:
        hits = 0  # ova is 2, 3 or 5: ova + 360*G is a proper multiple of it
    else:
        hits = sum(int(np.count_nonzero(seg)) for _, seg in
                   _sieve_segments(ova + MODULUS, MODULUS, rotations))
    return Fraction(hits, rotations)


def _iroot(x: int, k: int) -> int:
    """The largest y with y**k <= x, for x >= 0."""
    y = round(x ** (1 / k))
    while y ** k > x:
        y -= 1
    while (y + 1) ** k <= x:
        y += 1
    return y


def _sum_by_key(rows: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, s): the distinct keys, ascending, and s[j] = the int64 sum of
    the rows whose key is k[j], by one sort and one np.add.reduceat."""
    o = keys.argsort()
    keys = keys[o]
    heads = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[heads], np.add.reduceat(rows[o], heads, dtype=np.int64)


def _product_counts(x: int, y: int) -> np.ndarray:
    """c[a] = number of products p*q and p*q*r <= x of primes
    y < p <= q <= r in the class _UNITS[a] mod 360, for 13 <= y and
    (y+1)**4 > x.

    Each product is m*r with m = p and p <= r <= x // p, or m = p*q
    and q <= r <= x // (p*q): a query per m, which adds the class
    histogram of its range of r to row class(m) of a 96 x 96 table.
    Multiplying by a unit permutes the units, so one gather maps the
    rows to the product classes at the end. Every range starts below
    sqrt(x), and only the pairs' ranges pass it, as p*q >= (y+1)**2 >
    sqrt(x); _ranges_to_sqrt and _pairs_past_sqrt count the two parts.
    """
    ps = sieve_primes(math.isqrt(x))
    ps = ps[ps.searchsorted(y, "right"):]
    if not ps.size:  # x < 17**2, so no such product lies below x
        return np.zeros(_UNITS.size, dtype=np.int64)
    cls = _UNIT_INDEX[ps % MODULUS]
    sums = _ranges_to_sqrt(x, ps, cls)
    sums += _pairs_past_sqrt(x, y, ps, cls)
    return sums.take(_COFACTOR).sum(axis=0)


def _ranges_to_sqrt(x: int, ps: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """The 96 x 96 table of _product_counts over the ranges' primes up
    to sqrt(x), the primes ps past the cut, of classes cls.

    A difference array over the queries' ends gives, for each prime, the
    queries of each class whose range holds it, _STEP_ROWS primes at a
    time; those rows are then summed by the prime's class.
    """
    units = _UNITS.size
    # the triples' p; p = ps[i] takes q in ps[i:tops[i]], so q*q <= x // p
    p3 = ps[:ps.searchsorted(_iroot(x, 3), "right")]
    tops = ps.searchsorted([math.isqrt(x // p) for p in p3.tolist()], "right")
    spans = tops - np.arange(p3.size)
    qi = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - tops, spans)
    ms = np.concatenate((ps, np.repeat(p3, spans) * ps[qi]))
    rows = _UNIT_INDEX[ms % MODULUS]
    # the flat places (prime, class) where each query's range opens and
    # where it shuts, past its last prime
    opens = np.concatenate((np.arange(ps.size), qi)) * units + rows
    opens.sort()
    shuts = ps.searchsorted(x // ms, "right") * units + rows
    shuts.sort()
    sums = np.zeros((units, units), dtype=np.int64)
    run = np.zeros(units, dtype=np.int64)
    for s in range(0, ps.size, _STEP_ROWS):
        e = min(s + _STEP_ROWS, ps.size)
        bounds = (s * units, e * units)
        lo, hi = opens.searchsorted(bounds)
        cover = np.bincount(opens[lo:hi] - s * units, minlength=(e - s) * units)
        lo, hi = shuts.searchsorted(bounds)
        cover -= np.bincount(shuts[lo:hi] - s * units, minlength=(e - s) * units)
        # cover[i, a]: the queries of class a whose range holds ps[s + i]
        cover = cover.reshape(e - s, units)
        np.cumsum(cover, axis=0, out=cover)
        cover += run
        run = cover[-1].copy()
        b, by_class = _sum_by_key(cover, cls[s:e])
        sums[:, b] += by_class.T
    return sums


def _pairs_past_sqrt(x: int, y: int, ps: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """The 96 x 96 table of _product_counts over the pairs' primes past
    sqrt(x), for the primes ps past the cut y, of classes cls.

    The pairs' histograms are taken at their ends x // p with a running
    total over one stream of the odd primes to x // (y+1), _STEP_ROWS
    ends at a time: each prime is binned once, into the gap between
    ends it falls in, so memory is one segment whatever x.
    """
    units = _UNITS.size
    # the odd prime 2i+1 is past sqrt(x) iff i >= first, and it counts
    # toward the end t = (x//p + 1) // 2 of the pair with p iff i < t
    first = (math.isqrt(x) + 1) >> 1
    ends = (x // ps[::-1] + 1) >> 1
    keys = cls[::-1]
    sums = np.zeros((units, units), dtype=np.int64)
    run = np.zeros(units, dtype=np.int64)
    k = 0
    for start, seg in odd_prime_segments(x // (y + 1)):
        idx = np.flatnonzero(seg[max(first - start, 0):])
        idx += max(first, start)
        classes = _ODD_CLASS.take(idx % _ODD_PERIOD)
        stop = ends.searchsorted(start + seg.size, "right")
        done = 0
        for s in range(k, stop, _STEP_ROWS):
            t = ends[s:min(s + _STEP_ROWS, stop)]
            # the primes before each end, so the gap each one falls in
            cuts = idx.searchsorted(t)
            gap = np.repeat(np.arange(t.size), np.diff(cuts, prepend=done))
            gap *= units
            gap += classes[done:cuts[-1]]
            hist = np.bincount(gap, minlength=t.size * units).reshape(t.size, units)
            np.cumsum(hist, axis=0, out=hist)
            hist += run
            run = hist[-1].copy()
            done = cuts[-1]
            a, by_class = _sum_by_key(hist, keys[s:s + t.size])
            sums[a] += by_class
        run += np.bincount(classes[done:], minlength=units)
        k = stop
    return sums


@cache
def _free_counts() -> tuple[np.ndarray, np.ndarray]:
    """(t, at): t[k, c] counts the n = _UNITS[c] + 360*i, i < k, free of
    _TABLE_PRIMES, for k in [0, _TABLE_TERMS], so its last row is a
    whole period's; at[b, c] is the flat index of t[k, c] for k = 0 or,
    where _UNITS[c] <= b, k = 1. Both int32 and read-only, 0.5 MB,
    built on first use in under 1 ms, not at import."""
    units = _UNITS.size
    free = np.ones((_TABLE_TERMS, units), dtype=bool)
    for q in _TABLE_PRIMES:
        # q divides _UNITS[c] + 360*i for i = -_UNITS[c]/360 (mod q): 288
        # strided strikes took 0.13 ms against 1.1 ms for the moduli
        for c, i in enumerate((-_UNITS * pow(MODULUS, -1, q) % q).tolist()):
            free[i::q, c] = False
    t = np.zeros((_TABLE_TERMS + 1, units), dtype=np.int32)
    np.cumsum(free, axis=0, out=t[1:])
    at = (_UNITS <= np.arange(MODULUS)[:, None]) * units + np.arange(units)
    at = at.astype(np.int32)
    t.flags.writeable = at.flags.writeable = False
    return t, at


def _free_rows(z: np.ndarray) -> np.ndarray:
    """s[i, c]: the n <= z[i] in the class _UNITS[c] free of
    _TABLE_PRIMES, 1 included, as a len(z) x 96 int32 array, which
    holds them for every z < 1e12 (about z / 500 each).

    z = 360*(1001*w + a) + b with b < 360 holds w whole periods, and of
    the last one the terms i < a of each class, and i = a too where the
    class is at most b.
    """
    t, at = _free_counts()
    w, r = np.divmod(z, MODULUS * _TABLE_TERMS)
    a, b = np.divmod(r, MODULUS)
    k = at.take(b, axis=0)
    k += (a * _UNITS.size).astype(np.int32)[:, None]
    rows = t.take(k)
    big = w.nonzero()[0]
    if big.size:
        rows[big] += w[big, None] * t[-1]
    return rows


def _rough_counts(x: int, qs: np.ndarray) -> np.ndarray:
    """c[a] = number of n <= x in the class _UNITS[a] free of the primes
    to 13 and of qs, 1 included; qs are the primes from 17 to some
    bound, ascending.

    Legendre's phi (Deleglise & Rivat, Math. Comp. 65, 1996), over the
    96 classes at once: with q_0 < q_1 < ... the primes qs, the n <= z
    free of the first j of them are those free of none, less, for each
    i < j, q_i times the m <= z // q_i free of the first i. Multiplying
    by q_i maps m's class to its product with q_i's, a permutation of
    the units, so a node (z, j, u) stands for those counts taken to the
    classes u*c, and the root is (x, len(qs), 1). A node reads its first
    term, the n free of the primes to 13, off _free_rows, and splits on
    each q_i, i < j, with q_i**2 <= z into (z // q_i, i, u * q_i), of
    the opposite sign. Where q_i <= z < q_i**2 the only such m is 1, so
    those q_i are subtracted off a prefix table of the primes' classes
    instead; where z < q_i there is none. z falls by 17 or more per
    depth, so the frontier is expanded one depth at a time, in chunks
    of _PHI_CHUNK nodes: 2.8k nodes in all at 1e8, 30k at 1e9 and 310k
    at 1e10. Each chunk's rows are summed by u into a 96 x 96 table,
    and one gather maps the table's rows to the classes u*c at the end.
    """
    units = _UNITS.size
    cls = _UNIT_INDEX[qs % MODULUS]
    # primes[i]: the class histogram of qs[:i]
    primes = np.zeros((qs.size + 1, units), dtype=np.int32)
    primes[np.arange(1, qs.size + 1), cls] = 1
    np.cumsum(primes, axis=0, out=primes)
    # times[u, i]: the unit index of _UNITS[u] * qs[i]
    times = _UNIT_INDEX[np.outer(_UNITS, qs) % MODULUS].astype(np.int8)
    squares = qs * qs
    sums = np.zeros((units, units), dtype=np.int64)
    z = np.array([x], dtype=np.int64)
    j = np.array([qs.size], dtype=np.int16)
    u = np.zeros(1, dtype=np.int8)
    sign = 1
    while z.size:
        nodes = ([], [], [])
        for s in range(0, z.size, _PHI_CHUNK):
            zs, js, us = z[s:s + _PHI_CHUNK], j[s:s + _PHI_CHUNK], u[s:s + _PHI_CHUNK]
            # the node splits on qs[:split] and subtracts qs[split:top]
            split = np.minimum(js, squares.searchsorted(zs, "right"))
            top = np.maximum(np.minimum(js, qs.searchsorted(zs, "right")), split)
            rows = _free_rows(zs)
            rows -= primes.take(top, axis=0)
            rows += primes.take(split, axis=0)
            keys, by_unit = _sum_by_key(rows, us)
            sums[keys] += sign * by_unit
            parent = np.repeat(np.arange(zs.size), split)
            i = np.arange(parent.size) - np.repeat(split.cumsum() - split, split)
            nodes[0].append(zs[parent] // qs[i])
            nodes[1].append(i.astype(np.int16))
            nodes[2].append(times[us[parent], i])
        z, j, u = map(np.concatenate, nodes)
        sign = -sign
    return sums.take(_COFACTOR).sum(axis=0)


def residue_counts(x: int) -> tuple[int, ...]:
    """count[r] = number of primes <= x congruent to r mod 360.

    Lehmer's split (Illinois J. Math. 3, 1959) with y = max(x**(1/4),
    13): the n <= x free of the primes to y are 1, the primes past y and
    the composites whose prime factors all exceed y. Four of those would
    exceed (y+1)**4 > x, so the composites are p*q and p*q*r with
    y < p <= q <= r, which _product_counts counts class by class. The n
    free of the primes to y are Legendre's phi(x, y), which
    _rough_counts carries over the 96 classes at once by the truncated
    recursion of Deleglise & Rivat (Math. Comp. 65, 1996), reading the
    primes 7, 11 and 13 off a table of one period; so nothing walks [0,
    x]. The primes to y are added back, 2, 3 and 5 among them.

    In-process on a 2-core x86-64 VM it takes 8-10 ms at 1e8, 35-40 ms
    at 1e9 and 0.26-0.34 s at 1e10, against 16-19 ms, 0.19-0.21 s and
    2.1-2.5 s when the classes were struck on the eight lines of a
    mod-30 wheel to x, measured side by side; `dirichlet --all` peaks
    at 35, 40 and 40 MB (VmHWM, start-up included). Memory is the
    products' stream of one segment and one query per pair and triple
    (75.5k at 1e10), and the recursion's frontier (at 1e10 at most 212k
    of its 310k nodes, 11 bytes each) with a few chunk-sized tables.
    x past MAX_STREAM_LIMIT raises BoundError before anything is sieved.
    """
    counts = np.zeros(MODULUS, dtype=np.int64)
    if x < 2:
        return tuple(counts.tolist())
    _check_sieve_limit(x)
    y = max(_iroot(x, 4), _TABLE_PRIMES[-1])
    small = sieve_primes(min(x, y))
    # the products first: at 1e10 the verb peaked at 40.0 MB in this
    # order and at 41.4 MB in the other
    counts[_UNITS] = -_product_counts(x, y)
    counts[_UNITS] += _rough_counts(x, small[small > _TABLE_PRIMES[-1]])
    counts[1] -= 1  # 1 is free of every prime but is not one
    np.add.at(counts, small % MODULUS, 1)  # 7 and 367 share a class
    return tuple(counts.tolist())


def prime_count(x: int) -> int:
    return sum(residue_counts(x))


def _require_dirichlet_x(x: int) -> None:
    if x < 1000:
        raise DomainError(f"x must be >= 1000, got {x}")


def _report(x: int, ova: int, counts: tuple[int, ...]) -> DensityReport:
    """ova's report from counts = residue_counts(x), for ova in C*."""
    ratio = None if ova in _SINGLETONS else counts[ova] * 96 / (x / math.log(x))
    return DensityReport(x=x, ova=ova, count=counts[ova], ratio=ratio)


def dirichlet_ratio(x: int, ova: int) -> DensityReport:
    """Exact class count with the equidistribution ratio
    count * 96 / (x / ln x).

    The three singleton residues 2, 3, 5 are legal inputs with the
    ratio omitted (their counts are bounded); other residues outside
    C are a domain error. x past the stream bound MAX_STREAM_LIMIT
    raises BoundError before anything is sieved.
    """
    _require_dirichlet_x(x)
    if ova not in residue_sets().Cstar:  # C and the singletons
        raise DomainError(f"residue {ova} not in C")
    return _report(x, ova, residue_counts(x))


def dirichlet_all(x: int) -> list[DensityReport]:
    """Reports for every residue in C plus the three singletons,
    ordered by residue, all read from one residue_counts(x)."""
    _require_dirichlet_x(x)
    counts = residue_counts(x)
    return [_report(x, z, counts) for z in sorted(residue_sets().Cstar)]
