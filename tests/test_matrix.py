from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import goldens, matrix, primality
from ova360.errors import BoundError, DomainError
from ova360.matrix import (
    build_matrix,
    density,
    dirichlet_all,
    dirichlet_ratio,
    matrix_stats,
    prime_count,
    residue_counts,
)
from ova360.ova import residue_sets
from ova360.primality import is_prime_big, sieve_primes

GOLDEN_MATRICES = {
    7: "matrix_7.txt",
    353: "matrix_353.txt",
    23: "matrix_23.txt",
    337: "matrix_337.txt",
}


def test_build_first_row_ova7():
    m = build_matrix(7, 10)
    assert m.row(1) == (1, 1, 1, 1, 0, 0, 0, 1, 0, 1)
    # rotation 1 -> 367, rotation 4 -> 1447, both prime
    assert is_prime_big(367) and is_prime_big(1447)


def test_build_entry_indexing():
    m = build_matrix(353, 10)
    # entry (1, 5) covers 353 + 360*5 = 2153
    assert m.bits[0][4] == int(is_prime_big(2153)) == 1


def test_build_one_by_one():
    assert build_matrix(7, 1).bits == ((1,),)
    assert build_matrix(77, 1).bits == ((0,),)  # 437 = 19 * 23


def test_build_validation():
    with pytest.raises(DomainError):
        build_matrix(4, 10)
    with pytest.raises(DomainError):
        build_matrix(7, 0)
    with pytest.raises(DomainError):
        build_matrix(7, 10, start=0)


def test_start_parameter_shifts_window():
    base = build_matrix(7, 3, start=1)
    shifted = build_matrix(7, 3, start=4)
    assert shifted.bits[0] == base.bits[1]
    assert shifted.bits[1] == base.bits[2]


@pytest.mark.parametrize("ova,fname", sorted(GOLDEN_MATRICES.items()))
def test_matrices_match_golden(ova, fname):
    want = goldens.load_bit_rows(fname)
    got = build_matrix(ova, 10).bits
    assert got == want


def test_stats_ones_counts():
    assert matrix_stats(build_matrix(7, 10)).ones == 41
    assert matrix_stats(build_matrix(353, 10)).ones == 39


def test_stats_determinants_exact():
    assert matrix_stats(build_matrix(7, 10)).determinant == -6
    assert matrix_stats(build_matrix(353, 10)).determinant == 4
    assert matrix_stats(build_matrix(23, 10)).determinant == 18
    s = matrix_stats(build_matrix(337, 10))
    assert s.determinant == 0
    assert not s.nonsingular_over_rationals


def test_stats_sums_consistent():
    for ova in GOLDEN_MATRICES:
        s = matrix_stats(build_matrix(ova, 10))
        assert sum(s.row_sums) == s.ones == sum(s.col_sums)


def test_determinant_oracle_numpy():
    rng = np.random.default_rng(360)
    from ova360.matrix import _bareiss_determinant

    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.integers(-4, 5, size=(n, n))
        got = _bareiss_determinant(tuple(map(tuple, a.tolist())))
        want = round(float(np.linalg.det(a)))
        assert got == want


def test_zero_matrix_singular():
    s = matrix_stats(build_matrix(77, 1))
    assert s.determinant == 0 and not s.nonsingular_over_rationals


def test_density_examples():
    assert density(7, 1) == Fraction(1, 1)
    assert density(7, 100) == Fraction(41, 100)
    assert density(353, 100) == Fraction(39, 100)


def test_density_even_residue_is_zero():
    assert density(2, 100) == Fraction(0, 1)
    assert density(2, 6000) == Fraction(0, 1)


def test_density_matches_matrix_ones():
    for ova in (7, 353):
        ones = matrix_stats(build_matrix(ova, 10)).ones
        assert density(ova, 100) == Fraction(ones, 100)


def test_density_paths_agree():
    # one more rotation adds exactly that rotation's verdict
    slow = density(13, 5000)
    fast = density(13, 5001)
    hits_slow = slow.numerator * (5000 // slow.denominator)
    last = int(is_prime_big(13 + 360 * 5001))
    assert fast == Fraction(hits_slow + last, 5001)


def test_density_validation():
    with pytest.raises(DomainError):
        density(4, 100)
    with pytest.raises(DomainError):
        density(7, 0)


def _line_hits(ova: int, rotations: int) -> int:
    """Primes ova + 360*G, G in [1, rotations], by sympy."""
    return sum(sympy.isprime(ova + 360 * g) for g in range(1, rotations + 1))


# C*, with the singletons 2, 3, 5 drawn as often as the other 96 together
_CSTAR_RESIDUES = (st.sampled_from([2, 3, 5])
                   | st.sampled_from(sorted(residue_sets().Cstar)))


@given(_CSTAR_RESIDUES, st.integers(min_value=1, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_density_line_sieve_matches_sympy(ova, rotations):
    assert density(ova, rotations) == Fraction(_line_hits(ova, rotations),
                                               rotations)


@pytest.mark.parametrize("rotations", [374, 375, 376, 1000])
def test_density_keeps_a_sieving_prime_on_its_own_line(rotations):
    # 367 = 7 + 360*1 is a base prime once sqrt(7 + 360*R) >= 367 (R >= 375)
    assert math.isqrt(7 + 360 * 375) == 367 > math.isqrt(7 + 360 * 374)
    assert density(7, rotations) * rotations == _line_hits(7, rotations)


@pytest.mark.parametrize("ova", [1, 7, 353])
def test_density_across_segment_boundaries(monkeypatch, ova):
    monkeypatch.setattr(primality, "SEGMENT_ODDS", 64)
    for rotations in (63, 64, 65, 127, 128, 129, 1000):
        assert density(ova, rotations) * rotations == _line_hits(ova, rotations)


_COPRIME_CSTAR = sorted(z for z in residue_sets().Cstar if math.gcd(z, 360) == 1)


def test_density_matches_line_strike_loop(reference_line_prime_bits):
    for ova in _COPRIME_CSTAR:
        hits = np.cumsum(reference_line_prime_bits(ova, 2000))
        for rotations in range(1, 2001):
            assert density(ova, rotations) * rotations == hits[rotations - 1], (
                ova, rotations)
        # from R = 375 on, 7 + 360 is a base prime lying on its own line
        for rotations in (374, 375, 5001, 10**6):
            assert density(ova, rotations) * rotations == np.count_nonzero(
                reference_line_prime_bits(ova, rotations)), (ova, rotations)


@pytest.mark.parametrize("segment", [7, 180, 1000])
def test_density_matches_line_strike_loop_at_segment_ends(
        monkeypatch, reference_line_prime_bits, segment):
    monkeypatch.setattr(primality, "SEGMENT_ODDS", segment)
    for ova in _COPRIME_CSTAR:
        for j in (1, 2, 5):
            for rotations in range(j * segment - 1, j * segment + 2):
                assert density(ova, rotations) * rotations == np.count_nonzero(
                    reference_line_prime_bits(ova, rotations)), (ova, rotations)


def test_density_bound_fails_before_sieving(monkeypatch):
    def no_sieve(first, step, count):
        raise AssertionError("sieved past the rotations bound")

    monkeypatch.setattr(matrix, "_sieve_segments", no_sieve)
    with pytest.raises(BoundError):
        density(7, matrix.MAX_DENSITY_ROTATIONS + 1)


def test_build_matrix_start_bound_fails_before_testing(monkeypatch):
    def no_test(n):
        raise AssertionError("tested past the start bound")

    assert build_matrix(7, 1, matrix.MAX_MATRIX_START).k == 1
    monkeypatch.setattr(matrix, "is_prime_big", no_test)
    with pytest.raises(BoundError, match="exceeds bound"):
        build_matrix(7, 3, matrix.MAX_MATRIX_START + 1)


def test_build_matrix_k_bound_fails_before_testing(monkeypatch):
    def no_test(n):
        raise AssertionError("tested past the k bound")

    assert build_matrix(7, matrix.MAX_MATRIX_K).k == matrix.MAX_MATRIX_K
    monkeypatch.setattr(matrix, "is_prime_big", no_test)
    with pytest.raises(BoundError, match="exceeds bound"):
        build_matrix(7, matrix.MAX_MATRIX_K + 1)


def test_residue_counts_match_pi():
    x = 10**4
    counts = residue_counts(x)
    assert sum(counts) == prime_count(x) == 1229
    assert counts[2] == 1 and counts[3] == 1 and counts[5] == 1
    # every count sits on a residue in C*
    cstar = residue_sets().Cstar
    for r, c in enumerate(counts):
        if c:
            assert r in cstar


def test_residue_counts_oracle():
    x = 10**4
    counts = residue_counts(x)
    want = [0] * 360
    for p in sieve_primes(x).tolist():
        want[p % 360] += 1
    assert list(counts) == want


def test_residue_counts_match_gathered_counts(reference_residue_counts):
    for x in range(2, 5001):
        assert residue_counts(x) == reference_residue_counts(x), x
    # x = -1, 0 and 1 (mod 360) end a whole period of the classes or not
    for k in (2777, 2778, 2800):
        for x in (360 * k - 1, 360 * k, 360 * k + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


def test_residue_counts_at_the_cube_root_cut(reference_residue_counts):
    # the triples' p runs to cbrt(x), so their count moves at every cube:
    # k^3 - 1, k^3 and k^3 + 1 straddle it
    for k in range(13, 61):
        for x in (k**3 - 1, k**3, k**3 + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


def test_residue_counts_at_the_fourth_root_cut(reference_residue_counts):
    # the classes are counted free of the primes to max(x**(1/4), 13)
    # only, so the cut moves at every fourth power
    for k in range(13, 61):
        for x in (k**4 - 1, k**4, k**4 + 1):
            assert max(matrix._iroot(x, 4), 13) == max(k - (x < k**4), 13), x
            assert residue_counts(x) == reference_residue_counts(x), x


def test_residue_counts_at_prime_squares(reference_residue_counts):
    # q^2 - 1, q^2 and q^2 + 1 straddle q^2, where p = q joins the
    # products' pairs; the recursion's own edge at q^2, where a node
    # splits on q, is met on _rough_counts below
    for q in sympy.primerange(14, 400):
        for x in (q * q - 1, q * q, q * q + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


def test_rough_counts_where_a_node_stops_splitting():
    # with every prime in (13, 400) to split on, the root (x, ...) takes q
    # off the primes' table from x = q on and splits on it from x = q^2
    # on, so q - 1, q and q + 1 and q^2 - 1, q^2 and q^2 + 1 for each q
    # cross both edges; the n <= x free of the primes to 400 are 1 and the
    # primes past 400
    qs = sieve_primes(399)
    qs = qs[qs > 13]
    free = np.ones(399**2 + 2, dtype=bool)
    free[0] = False
    for p in (7, 11, 13, *qs.tolist()):
        free[p::p] = False
    for q in qs.tolist():
        for x in (q - 1, q, q + 1, q * q - 1, q * q, q * q + 1):
            # the classes of the units mod 360 hold no multiple of 2, 3, 5
            want = np.bincount(np.flatnonzero(free[:x + 1]) % 360, minlength=360)
            assert np.array_equal(matrix._rough_counts(x, qs),
                                  want[matrix._UNITS]), x


def test_residue_counts_at_the_table_period(reference_residue_counts):
    # the numbers free of 7, 11 and 13 are read off one period, 360 * 1001,
    # of each class: x = -1, 0 and 1 mod 360360 end a whole period
    for t in (1, 2, 3):
        for x in (360360 * t - 1, 360360 * t, 360360 * t + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


@pytest.mark.parametrize("chunk", [1, 7])
def test_residue_counts_in_small_chunks(monkeypatch, reference_residue_counts, chunk):
    # the frontier's rounds split into chunks of _PHI_CHUNK nodes, the
    # last one short
    monkeypatch.setattr(matrix, "_PHI_CHUNK", chunk)
    for x in (10**6, 10**7):
        assert residue_counts(x) == reference_residue_counts(x), (chunk, x)


def test_residue_counts_at_the_first_triples(reference_residue_counts):
    # 17^3 and 17^2 * 19 are the least products of three primes past 13
    for n in (17**3, 17**2 * 19):
        for x in (n - 1, n, n + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


def _triple_edges(p: int) -> list[int]:
    """Products p*q*r of primes p <= q <= r below p^4, so that p is past
    the cut at their own x. q is p or the largest prime with p*q*q below
    p^4; r is at either end of q's span: r = q, or the largest prime with
    p*q*r below p^4, where p is the first prime past the cut."""
    bound = p**4
    edges = []
    for q in (p, sympy.prevprime(math.isqrt(bound // p))):
        edges += [p * q * q, p * q * sympy.prevprime(bound // (p * q))]
    return edges


def test_residue_counts_at_three_factor_edges(reference_residue_counts):
    for low in (13, 20, 30, 50):
        p = sympy.nextprime(low)
        for n in _triple_edges(p):
            for x in (n - 1, n, n + 1):
                assert max(matrix._iroot(x, 4), 13) < p, x
                assert x < n or p <= matrix._iroot(x, 3), x
                assert residue_counts(x) == reference_residue_counts(x), x


def test_residue_counts_at_two_factor_edges(monkeypatch, reference_residue_counts):
    # p^2 and p*q are the composites left standing by the cut at their
    # own x, with q at the low (q = p) or high (q = x // p) end of p's span
    for low in (13, 20, 50, 100, 200, 450):
        p = sympy.nextprime(low)
        q = sympy.nextprime(p)
        # the largest q' < p^2 keeps p just above the cut of p*q'
        top = sympy.prevprime(p * p)
        for x in (p * p - 1, p * p, p * p + 1, p * q - 1, p * q, p * q + 1,
                  p * top - 1, p * top, p * top + 1):
            assert max(matrix._iroot(x, 4), 13) < p <= math.isqrt(x) or x < p * p, x
            assert residue_counts(x) == reference_residue_counts(x), x
    # the 157 primes p in (31, 1000], as difference array rows and as pair
    # ends, in steps of 7, the last one short
    monkeypatch.setattr(matrix, "_STEP_ROWS", 7)
    for x in (10**6 - 1, 10**6, 10**6 + 1):
        assert residue_counts(x) == reference_residue_counts(x), x


@pytest.mark.parametrize("segment_odds", [7, 180, 1000])
def test_product_counts_stream_at_segment_ends(monkeypatch, reference_residue_counts,
                                               segment_odds):
    # the pairs' ends past sqrt(x) are taken from the odd primes' stream:
    # every x here crosses segment ends there, and sqrt(x) lies inside a
    # segment or on its first term
    monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
    for x in range(30000, 30061):
        assert residue_counts(x) == reference_residue_counts(x), (segment_odds, x)
    for r in (2 * segment_odds - 1, 2 * segment_odds + 1):
        x = r * r
        assert residue_counts(x) == reference_residue_counts(x), (segment_odds, x)


def test_residue_counts_where_the_cut_meets_the_pattern_groups(reference_residue_counts):
    # the cut x**(1/4) reaches the last prime q of a pattern group at q**4
    # (around 2e6 it is 37 as well), where the primes split on gain q
    assert [g[-1] for g in primality._PATTERN_GROUPS] == [23, 37, 47, 61]
    assert matrix._iroot(2 * 10**6, 4) == 37
    for n in (23**4, 37**4, 47**4, 61**4, 2 * 10**6):
        for x in (n - 1, n, n + 1):
            assert residue_counts(x) == reference_residue_counts(x), x


def test_residue_counts_at_1e8_pinned():
    counts = residue_counts(10**8)
    assert sum(counts) == sympy.primepi(10**8) == 5761455
    # the per-class tuple, sha256 of its comma-joined decimals, as the
    # strike loop over every base prime to 10^4 counted it
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
    assert digest == "76b2cb7d7a71553f5b213a65cebef54b536fee90b2db8fd441c03842b5e2627e"


def test_residue_counts_stream_matches_whole_bitmap(monkeypatch,
                                                   reference_whole_bitmap_counts):
    for x in range(1, 3001):
        assert residue_counts(x) == reference_whole_bitmap_counts(x), x
    seg = primality.SEGMENT_ODDS
    for x in (2 * seg - 2, 2 * seg - 1, 2 * seg, 2 * seg + 1, 4 * seg + 2):
        assert residue_counts(x) == reference_whole_bitmap_counts(x), x
    # segment ends (the last odd of segment j is 2 * j * segment_odds - 1),
    # with segments that do and do not start on a period of 180 odds
    for segment_odds in (7, 180, 1000, 15016):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for j in (1, 2, 5):
            for x in range(2 * j * segment_odds - 2, 2 * j * segment_odds + 3):
                assert residue_counts(x) == reference_whole_bitmap_counts(x), (
                    segment_odds, x)
        for x in (360 * 97 - 1, 360 * 97, 360 * 97 + 1):
            assert residue_counts(x) == reference_whole_bitmap_counts(x), (
                segment_odds, x)


@pytest.mark.parametrize("segment", [7, 12, 180, 1000, 15016])
def test_residue_counts_match_whole_bitmap_at_wheel_segment_ends(
        monkeypatch, reference_whole_bitmap_counts, segment):
    # x within 30 of 30 * j * segment, which ended a segment on each line
    # w + 30i of the mod-30 wheel that once carried these counts, with
    # the products' stream of odds cut into the same segments
    monkeypatch.setattr(primality, "SEGMENT_ODDS", segment)
    for x in range(1, 101):
        assert residue_counts(x) == reference_whole_bitmap_counts(x), (segment, x)
    for j in (1, 2, 5):
        for x in range(30 * j * segment - 30, 30 * j * segment + 31):
            assert residue_counts(x) == reference_whole_bitmap_counts(x), (segment, x)


def test_residue_counts_bound_fails_before_sieving_on_a_warm_cache(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved past the stream bound")

    assert sum(residue_counts(10**6)) == 78498  # fills the strike loop's caches
    monkeypatch.setattr(matrix, "_sieve_segments", no_sieve)
    monkeypatch.setattr(primality, "_sieve_segments", no_sieve)
    with pytest.raises(BoundError, match=str(primality.MAX_STREAM_LIMIT)):
        residue_counts(primality.MAX_STREAM_LIMIT + 1)


@pytest.mark.parametrize("x", [2, 1000, 1081, 65537, 10**6 + 1, 3 * 10**6])
def test_prime_count_matches_sympy(x):
    assert prime_count(x) == sympy.primepi(x)


def test_c_counts_plus_singletons_equal_pi():
    x = 10**6
    counts = residue_counts(x)
    c_sum = sum(counts[r] for r in residue_sets().C)
    assert c_sum + 3 == prime_count(x) == 78498


def test_dirichlet_ratio_basics():
    r = dirichlet_ratio(10**4, 13)
    assert r.count == residue_counts(10**4)[13]
    predicted = (10**4 / math.log(10**4)) / 96
    assert r.ratio == pytest.approx(r.count / predicted)


def test_dirichlet_singletons_allowed():
    r = dirichlet_ratio(10**4, 2)
    assert (r.count, r.ratio) == (1, None)
    assert dirichlet_ratio(10**4, 3).count == 1
    assert dirichlet_ratio(10**4, 5).count == 1


def test_dirichlet_validation():
    with pytest.raises(DomainError):
        dirichlet_ratio(999, 7)
    with pytest.raises(DomainError):
        dirichlet_ratio(10**4, 4)
    with pytest.raises(DomainError):
        dirichlet_ratio(10**4, 9)  # 9 divides 360, not a totative
    # 1 is a legal class (1801, 2521, ... are primes = 1 mod 360)
    assert dirichlet_ratio(10**4, 1).ratio is not None


def test_dirichlet_all_shape():
    reports = dirichlet_all(10**4)
    assert len(reports) == 99
    assert [r.ova for r in reports] == sorted(
        residue_sets().C | {2, 3, 5}
    )
    assert sum(r.count for r in reports) == prime_count(10**4)
    ratios = [r.ratio for r in reports if r.ratio is not None]
    assert len(ratios) == 96
    assert all(0.3 < x < 2.0 for x in ratios)


def test_twin_frequency_rotations():
    # twins with lower residue != 359 share their rotation; residue 359
    # pairs straddle the boundary (7559/7561 is the smallest case)
    limit = 10**6
    vals = sieve_primes(limit)
    twins_lo = vals[:-1][(vals[1:] - vals[:-1]) == 2]
    twins_lo = twins_lo[twins_lo > 5]
    assert twins_lo.size > 8000
    res = twins_lo % 360
    same = twins_lo // 360 == (twins_lo + 2) // 360
    assert np.all(same[res != 359])
    assert not np.any(same[res == 359])
    assert 7559 in twins_lo[res == 359]
