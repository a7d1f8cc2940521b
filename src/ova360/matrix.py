"""Prime-indicator matrices per residue class and density diagnostics.

A k x k matrix for residue z marks which rotations G = 1..k**2 make
z + 360*G prime. Densities are exact rationals, counted by the one
segmented sieve of primality, run over the residue line z + 360*G
itself rather than the odd numbers: memory is one segment of G values
plus the base primes up to sqrt(z + 360*R), never a bitmap of every
odd number below the line's top. The Dirichlet-style diagnostic
compares each class's prime count against the equidistribution
prediction (x/ln x)/96; the counts come from the same sieve run over
the eight lines w + 30i of a mod-30 wheel, each folded by its period
of 12 terms mod 360.
Determinants are computed exactly over the integers (Bareiss
fraction-free elimination) so invertibility gets an exact verdict
instead of a floating-point guess: these matrices are not invertible
in general (residue 337 gives determinant 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BoundError, DomainError
from .ova import MODULUS, residue_sets
from .primality import (
    _check_sieve_limit,
    _sieve_segments,
    is_prime_big,
    period_counts,
)

# density(): the largest rotation count accepted; see there for the
# measured cost.
MAX_DENSITY_ROTATIONS = 10**8
# build_matrix: largest start and k accepted; see there for the measured
# cost (matrix_stats' Bareiss elimination grows as k**3).
MAX_MATRIX_START = 10**100
MAX_MATRIX_K = 100
_SINGLETONS = (2, 3, 5)
# residue_counts' wheel: every prime past 5 lies on one of the lines
# w + 30i with w coprime to 30, and 30 divides 360.
_WHEEL = math.prod(_SINGLETONS)
_WHEEL_LINES = tuple(w for w in range(1, _WHEEL) if math.gcd(w, _WHEEL) == 1)


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
    segment plus the base primes: at MAX_DENSITY_ROTATIONS = 1e8 a call
    takes 0.5-0.8 s and 34 MB peak RSS (VmHWM) on a 2-core x86-64 VM.
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


@lru_cache(maxsize=4)
def residue_counts(x: int) -> tuple[int, ...]:
    """count[r] = number of primes <= x congruent to r mod 360.

    The primes past 5 lie on the eight lines w + 30i, w coprime to 30
    (a mod-30 wheel; Pritchard, Acta Informatica 17, 1982), and the
    strike loop runs over each line, which holds 8 of every 30 numbers
    where the odd numbers hold 15. w + 30i mod 360 has period 12 in i,
    so each segment folds into 12 columns, column c counting residue
    w + 30c; 2, 3 and 5 are added last. Memory is one segment, whatever
    x; x past MAX_STREAM_LIMIT raises BoundError before anything is
    sieved.
    """
    counts = np.zeros(MODULUS, dtype=np.int64)
    if x < 2:
        return tuple(counts.tolist())
    _check_sieve_limit(x)
    period = MODULUS // _WHEEL
    for w in _WHEEL_LINES:
        if w <= x:
            # a generator, so no segment outlives its line
            counts[w::_WHEEL] = sum(
                period_counts(seg, start, period)
                for start, seg in _sieve_segments(w, _WHEEL, (x - w) // _WHEEL + 1))
    for p in _SINGLETONS:
        counts[p] += p <= x
    return tuple(counts.tolist())


def prime_count(x: int) -> int:
    return sum(residue_counts(x))


def dirichlet_ratio(x: int, ova: int) -> DensityReport:
    """Exact class count with the equidistribution ratio
    count * 96 / (x / ln x).

    The three singleton residues 2, 3, 5 are legal inputs with the
    ratio omitted (their counts are bounded); other residues outside
    C are a domain error. x past the stream bound MAX_STREAM_LIMIT
    raises BoundError before anything is sieved.
    """
    if x < 1000:
        raise DomainError(f"x must be >= 1000, got {x}")
    sets = residue_sets()
    if ova in _SINGLETONS:
        count = residue_counts(x)[ova]
        return DensityReport(x=x, ova=ova, count=count, ratio=None)
    if ova not in sets.C:
        raise DomainError(f"residue {ova} not in C")
    count = residue_counts(x)[ova]
    ratio = count * 96 / (x / math.log(x))
    return DensityReport(x=x, ova=ova, count=count, ratio=ratio)


def dirichlet_all(x: int) -> list[DensityReport]:
    """Reports for every residue in C plus the three singletons,
    ordered by residue."""
    sets = residue_sets()
    order = sorted(sets.C | set(_SINGLETONS))
    return [dirichlet_ratio(x, z) for z in order]
