from __future__ import annotations

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import mr

from ova360 import primality
from ova360.errors import BoundError, DomainError
from ova360.primality import (
    MAX_PRIME_LIST_LIMIT,
    MAX_STREAM_LIMIT,
    SEGMENT_ODDS,
    bertrand_prime,
    composite_interval,
    interval_gap,
    is_prime,
    is_prime_big,
    odd_prime_segments,
    sieve_primes,
)


def test_sieve_empty_below_two():
    assert sieve_primes(0).size == 0
    assert sieve_primes(1).size == 0


def test_sieve_small():
    assert sieve_primes(30).tolist() == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


def test_sieve_millionth_count():
    assert sieve_primes(10**6).size == 78498


def test_sieve_segment_size_irrelevant(monkeypatch):
    assert (10**7 + 1) // 2 > 3 * SEGMENT_ODDS  # four default segments
    c = sieve_primes(10**7)
    monkeypatch.setattr(primality, "SEGMENT_ODDS", 1 << 8)
    a = sieve_primes(10**5)
    monkeypatch.setattr(primality, "SEGMENT_ODDS", 1 << 20)
    b = sieve_primes(10**5)
    assert (a == b).all()
    for segment_odds in (1 << 12, 15015, 1 << 20, 1 << 22):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        assert (sieve_primes(10**7) == c).all()
    assert c.size == 664579


def test_sieve_negative_limit_rejected():
    with pytest.raises(DomainError):
        sieve_primes(-1)


def test_sieve_bound():
    with pytest.raises(BoundError):
        sieve_primes(MAX_PRIME_LIST_LIMIT + 1)


def _assert_matches_reference(limit, reference_odd_prime_bitmap):
    """The joined stream and the prime list to limit both equal the
    reference bitmap's."""
    case = (primality.SEGMENT_ODDS, limit)
    want = reference_odd_prime_bitmap(limit)
    got = _streamed(limit)
    assert got.dtype == bool
    assert np.array_equal(got, want), case
    primes = sieve_primes(limit)
    assert primes.dtype == np.int64
    two = [2] if limit >= 2 else []
    assert primes.tolist() == two + (2 * np.flatnonzero(want) + 1).tolist(), case


def test_bitmap_matches_reference_at_every_small_limit(reference_odd_prime_bitmap):
    for limit in range(1, 3001):
        _assert_matches_reference(limit, reference_odd_prime_bitmap)


def test_bitmap_matches_reference_at_period_and_segment_ends(monkeypatch,
                                                            reference_odd_prime_bitmap):
    # the pre-sieve pattern repeats every 15015 odds, i.e. 30030 values
    for k in (1, 2, 3, 7):
        for limit in range(30030 * k - 2, 30030 * k + 3):
            _assert_matches_reference(limit, reference_odd_prime_bitmap)
    for limit in (2 * SEGMENT_ODDS - 1, 2 * SEGMENT_ODDS + 1, 4 * SEGMENT_ODDS):
        _assert_matches_reference(limit, reference_odd_prime_bitmap)
    # segment ends: the last odd of segment j is 2 * j * segment_odds - 1
    for segment_odds in (180, 1000, 15015, 15016):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for j in (1, 2, 5):
            for limit in range(2 * j * segment_odds - 3, 2 * j * segment_odds + 2):
                _assert_matches_reference(limit, reference_odd_prime_bitmap)


def test_bitmap_matches_reference_at_1e7(reference_odd_prime_bitmap):
    _assert_matches_reference(10**7, reference_odd_prime_bitmap)


def _streamed(limit):
    """The stream's segments joined, checking that each starts where the
    last ended and that all share one buffer of SEGMENT_ODDS bytes."""
    parts, buffer = [], None
    for start, seg in odd_prime_segments(limit):
        assert start == sum(p.size for p in parts)
        assert seg.size == min(primality.SEGMENT_ODDS, (limit + 1) // 2 - start)
        buffer = seg if buffer is None else buffer
        assert np.shares_memory(seg, buffer)
        parts.append(seg.copy())
    return np.concatenate(parts)


def test_segments_join_to_the_bitmap(monkeypatch, reference_odd_prime_bitmap):
    for limit in (2 * SEGMENT_ODDS - 1, 2 * SEGMENT_ODDS + 1, 10**7):
        assert np.array_equal(_streamed(limit), reference_odd_prime_bitmap(limit)), limit
    for segment_odds in (1, 2, 7, 180, 1000):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for limit in range(1, 400):
            assert np.array_equal(_streamed(limit), reference_odd_prime_bitmap(
                limit)), (segment_odds, limit)
    for segment_odds in (180, 15015, 15016):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for j in (1, 2, 5):
            for limit in range(2 * j * segment_odds - 3, 2 * j * segment_odds + 2):
                assert np.array_equal(_streamed(limit),
                                      reference_odd_prime_bitmap(limit)), limit


def test_stream_bound_fails_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved past the bound")

    monkeypatch.setattr(primality, "_sieve_segments", no_sieve)
    with pytest.raises(BoundError, match=str(MAX_STREAM_LIMIT)):
        odd_prime_segments(MAX_STREAM_LIMIT + 1)
    with pytest.raises(DomainError):
        odd_prime_segments(0)


def test_stream_bound_fails_before_sieving_on_a_warm_cache(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved past the bound")

    assert sieve_primes(10**6).size == 78498  # fills the strike loop's caches
    monkeypatch.setattr(primality, "_sieve_segments", no_sieve)
    with pytest.raises(BoundError, match=str(MAX_STREAM_LIMIT)):
        odd_prime_segments(MAX_STREAM_LIMIT + 1)


def _progression(first, step, count):
    """The strike loop's segments over first + step*i, joined."""
    return np.concatenate([seg.copy() for _, seg in
                           primality._sieve_segments(first, step, count)])


def test_strike_loop_caches_serve_interleaved_progressions(
        monkeypatch, reference_odd_prime_bitmap, reference_line_prime_bits):
    # the cached base primes and patterns are keyed without first, so
    # calls that differ in first, step, bound and segment size take turns
    primality._base_primes.cache_clear()
    primality._period_pattern.cache_clear()

    def odd_stream(limit):
        got = _progression(1, 2, (limit + 1) // 2)
        assert np.array_equal(got, reference_odd_prime_bitmap(limit)), limit

    def density_line(ova, rotations):
        got = _progression(ova + 360, 360, rotations)
        want = reference_line_prime_bits(ova, rotations)
        assert np.array_equal(got, want), (ova, rotations)

    def wheel_line(w, count):
        bits = reference_odd_prime_bitmap(w + 30 * (count - 1))
        want = bits[(w + 30 * np.arange(count)) // 2]
        assert np.array_equal(_progression(w, 30, count), want), (w, count)

    cases = ((3001, (7, 11), (1, 11)), (30031, (1, 13), (7, 17)),
             (10**5 + 1, (353, 359), (29, 13)))
    for segment, upto in ((7, 2), (1000, 3), (SEGMENT_ODDS, 3)):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment)
        for limit, (z, z2), (w, w2) in cases[:upto]:
            odd_stream(limit)
            density_line(z, limit // 30)
            density_line(z2, limit // 3)
            wheel_line(w, limit // 30)
            wheel_line(w2, limit // 3)
            odd_stream(limit // 3)
            odd_stream(limit)
    assert primality._base_primes.cache_info().hits > 0
    assert primality._period_pattern.cache_info().hits > 0


def test_small_calls_build_no_full_segment_tile(monkeypatch):
    from ova360 import matrix, ova

    ova.residue_sets()  # cached on its own, so it sieves nothing below
    primality._base_primes.cache_clear()
    built = []
    build = primality._period_pattern.__wrapped__

    def recorded(primes):
        pattern = build(primes)
        built.append((primes, pattern.size))
        return pattern

    monkeypatch.setattr(primality, "_period_pattern", recorded)
    assert sieve_primes(1000).size == 168
    assert matrix.density(7, 100) * 100 == 41
    assert sum(matrix.residue_counts(10**4)) == 1229
    # each call builds the pre-sieve patterns of its own progressions (1 +
    # 1), and the cold base primes those of the sieve_primes runs that
    # list them: to 31, 7 and 3 for the odds to 1000, and to 255 and 15
    # for density's line (15's base primes are cached by then). The class
    # counts run over the odds three times, on cached base primes: to 13 =
    # max(10^4**(1/4), 13) for the primes they add back, and for the
    # products' count to 100 = sqrt(10^4) and to 714 = 10^4 // 14. They
    # strike no wheel lines, whose 8 patterns and one cold base-prime run
    # made 18 builds here. No count reaches the first group's period, so
    # no group's pattern is built
    assert len(built) == (1 + 3) + (1 + 2) + (1 + 1 + 1)
    assert {primes for primes, _ in built} == {(3, 5, 7, 11, 13), (7, 11, 13)}
    assert max(size for _, size in built) == 2 * 15015 < SEGMENT_ODDS // 8

    def groups_built(call):
        """The groups whose patterns call builds, each two periods long."""
        built.clear()
        call()
        assert all(size == 2 * math.prod(primes) for primes, size in built)
        return {primes for primes, _ in built} & set(primality._PATTERN_GROUPS)

    # a group is built from the first count that holds its period on
    g1, g2, g3, g4 = primality._PATTERN_GROUPS
    assert [math.prod(g) for g in (g1, g2, g3, g4)] == [7429, 33263, 82861, 190747]
    assert groups_built(lambda: sieve_primes(2 * 7429 - 2)) == set()
    assert groups_built(lambda: sieve_primes(2 * 7429 - 1)) == {g1}
    assert groups_built(lambda: matrix.density(7, 190746)) == {g1, g2, g3}
    assert groups_built(lambda: matrix.density(7, 190747)) == {g1, g2, g3, g4}
    # the odds to 4e5 hold every period; the wheel line to 3e5 strikes to
    # 547 but holds only the first period
    assert groups_built(lambda: list(primality._sieve_segments(1, 2, 2 * 10**5))) == {
        g1, g2, g3, g4}
    assert groups_built(lambda: list(primality._sieve_segments(7, 30, 10**4))) == {g1}


# each group's period -1, 0 and +1
_GROUP_EDGE_COUNTS = tuple(period + d for period in (7429, 33263, 82861, 190747)
                           for d in (-1, 0, 1))


@pytest.mark.parametrize("step, firsts", [
    (2, (1,)),
    # the eight wheel lines: each holds one or two of the groups' primes
    # (31 and 61 on the line from 1), which a pattern clears and the head
    # restores
    (30, (1, 7, 11, 13, 17, 19, 23, 29)),
    # density's lines for ova 7 and 1; 361 = 19^2 is its first term
    (360, (367, 361)),
])
def test_pattern_groups_match_reference_at_their_edges(step, firsts,
                                                       reference_odd_prime_bitmap):
    top = _GROUP_EDGE_COUNTS[-1]
    bits = reference_odd_prime_bitmap(max(firsts) + step * (top - 1))

    for first in firsts:
        for count in _GROUP_EDGE_COUNTS:
            want = bits[(first + step * np.arange(count)) // 2]
            assert np.array_equal(_progression(first, step, count), want), (
                first, count)


@pytest.mark.parametrize("step", [2, 30, 360])
def test_base_primes_match_sympy(step):
    # 2^18 is density's bound at MAX_DENSITY_ROTATIONS, the largest asked for
    for k in range(4, 19):
        ps, inv = primality._base_primes(step, 1 << k)
        want = [p for p in sympy.primerange(14, 1 << k) if step % p]
        assert ps.tolist() == want, (step, k)
        assert np.all(step * inv % ps == 1), (step, k)


def test_bitmap_indexing():
    bm = _streamed(100)
    assert not bm[0]  # 1
    assert bm[1] and bm[2]  # 3, 5
    assert not bm[4]  # 9
    assert bm[48]  # 97


def test_is_prime_rejects_from_psi_13():
    with pytest.raises(DomainError, match="psi_13"):
        is_prime(PSI_13)
    with pytest.raises(DomainError):
        is_prime(1 << 100)
    # psi_12 passes bases 2 to 37; the psi_13 row's base 41 rejects it
    assert not is_prime(PSI_12)
    assert not is_prime(1 << 64) and is_prime((1 << 64) + 13)


def test_is_prime_big_delegates_below_64bit():
    assert is_prime_big(2**61 - 1)
    assert not is_prime_big(math.factorial(20) + 2)


def test_is_prime_big_deterministic():
    n = (1 << 89) - 1
    assert is_prime_big(n) == is_prime_big(n)


def test_composite_interval_examples():
    iv = composite_interval(5)
    assert (iv.low, iv.high) == (722, 726)
    iv = composite_interval(3)
    assert (iv.low, iv.high) == (26, 28)
    assert iv.members() == [26, 27, 28]


def test_composite_interval_verify_mode():
    composite_interval(19, verify=True)


def test_composite_interval_bounds():
    with pytest.raises(DomainError):
        composite_interval(0)
    with pytest.raises(BoundError):
        composite_interval(41)


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_composite_interval_members_composite(n):
    iv = composite_interval(n)
    assert iv.high - iv.low == n - 1
    for m in iv.members():
        assert not is_prime_big(m)


def test_interval_gap_values():
    # distance from (n+1)!+n+1 to (n+2)!+2
    assert interval_gap(1) == 4 - 1 + 1  # 4, next interval starts at 8
    assert interval_gap(5) == 36 * 120 - 4
    with pytest.raises(DomainError):
        interval_gap(0)
    with pytest.raises(BoundError, match="factorial bound 40"):
        interval_gap(41)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_interval_gap_identity(n):
    gap = interval_gap(n)
    assert gap == (math.factorial(n + 2) + 2) - (math.factorial(n + 1) + n + 1)
    assert gap == (n + 1) ** 2 * math.factorial(n) - n + 1


def test_bertrand_examples():
    assert bertrand_prime(2) == 3
    assert bertrand_prime(10) == 11
    assert bertrand_prime(100) == 101


def test_bertrand_rejects_small():
    with pytest.raises(DomainError):
        bertrand_prime(1)


def test_bertrand_bound_fails_before_testing(monkeypatch):
    top = primality.MAX_CONSTRUCT_N
    assert bertrand_prime(top) == top + 331

    def no_test(n):
        raise AssertionError("tested past the bound")

    monkeypatch.setattr(primality, "is_prime_big", no_test)
    with pytest.raises(BoundError, match="exceeds construction bound"):
        bertrand_prime(top + 1)


@pytest.mark.parametrize("value, error, message", [
    (1, DomainError, "n must be >= 2, got 1"),
    (primality.MAX_CONSTRUCT_N + 1, BoundError,
     f"n {primality.MAX_CONSTRUCT_N + 1} exceeds construction bound "
     f"{primality.MAX_CONSTRUCT_N}"),
], ids=("below", "past"))
def test_bertrand_range_messages(value, error, message):
    with pytest.raises(error) as info:
        bertrand_prime(value)
    assert type(info.value) is error and str(info.value) == message


def test_bertrand_exhaustive_to_1e5():
    primes = sieve_primes(2 * 10**5 + 10)
    import numpy as np

    for n in range(2, 10**5 + 1, 997):  # stride keeps runtime low
        idx = np.searchsorted(primes, n + 1)
        assert n < int(primes[idx]) < 2 * n
        assert bertrand_prime(n) == int(primes[idx])


def test_bertrand_dense_small_range():
    primes = sieve_primes(4 * 10**3).tolist()
    ps = set(primes)
    for n in range(2, 2000):
        p = bertrand_prime(n)
        assert n < p < 2 * n and p in ps
        assert all(m not in ps for m in range(n + 1, p))


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# Least strong pseudoprimes to the bases 2, 2..3, ..., 2..17, 2..23,
# 2..37 (psi_12) and 2..41 (psi_13), and to 2, 7, 61 and 2, 13, 23,
# 1662803 (Jaeschke 1993; Sorenson & Webster 2017), with those bases.
# From psi_13 up, is_prime_big runs BPSW.
STRONG_PSEUDOPRIME_BOUNDS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (PSI_12, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (PSI_13, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def test_is_prime_matches_sympy_around_base_bounds():
    for bound, bases in STRONG_PSEUDOPRIME_BOUNDS + ((1 << 64, ()),):
        for n in range(bound - 200, bound + 201):
            if n < PSI_13:
                assert is_prime(n) == sympy.isprime(n), n
            else:
                with pytest.raises(DomainError):
                    is_prime(n)
                assert is_prime_big(n) == sympy.isprime(n), n
        if bases:
            assert mr(bound, list(bases)) and not is_prime_big(bound)
    assert not mr(PSI_12, [41])


@given(st.integers(2, 82).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_sympy_by_bit_length(n):
    want = sympy.isprime(n)
    assert is_prime_big(n) == want
    if n < PSI_13:
        assert is_prime(n) == want
    p = sympy.nextprime(n)
    assert is_prime_big(p)
    if p < PSI_13:
        assert is_prime(p)


def test_is_prime_matches_sympy_inside_each_band():
    # random n and the next prime after each, in every band of the base
    # table and above psi_13
    rng = random.Random(1993)
    edges = [256] + [bound for bound, _ in STRONG_PSEUDOPRIME_BOUNDS] + [1 << 128]
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(40):
            n = rng.randrange(lo, hi)
            p = int(sympy.nextprime(n))
            assert is_prime_big(n) == sympy.isprime(n), n
            assert is_prime_big(p), p


def _passes_base_2(n):
    return primality._strong_probable_prime(n, *primality._odd_part(n), 2)


def test_is_prime_big_matches_bpsw_halves():
    rng = random.Random(65128)
    samples = [PSI_12, PSI_13, 3 * ((1 << 89) - 1), (1 << 64) + 1]
    for _ in range(300):
        b = rng.randint(65, 128)
        n = rng.getrandbits(b) | (1 << (b - 1)) | 1
        samples += [n, int(sympy.nextprime(n))]
    for n in samples:
        want = sympy.isprime(n)
        if n < PSI_13:  # the fixed bases
            assert is_prime_big(n) == is_prime(n) == want, n
        else:
            both = _passes_base_2(n) and primality._strong_lucas_probable_prime(n)
            assert is_prime_big(n) == both == want, n


def test_each_bpsw_half_rejects_the_other_halfs_pseudoprimes():
    # strong pseudoprimes to base 2, and strong Lucas pseudoprimes with
    # Selfridge's parameters (Baillie & Wagstaff 1980)
    for n in (2047, 3277, 4033):
        assert _passes_base_2(n) and not primality._strong_lucas_probable_prime(n), n
    for n in (5459, 5777, 10877):
        assert primality._strong_lucas_probable_prime(n) and not _passes_base_2(n), n
    # a square never ends the search for D, so the Lucas half rejects it first
    assert not primality._strong_lucas_probable_prime(257**2)
    assert not primality._strong_lucas_probable_prime(((1 << 89) - 1) ** 2)


def test_psi_13_passes_bases_2_and_3_alone():
    # psi_13 passes every fixed base, so only the Lucas half can expose it
    d, r = primality._odd_part(PSI_13)
    for a in STRONG_PSEUDOPRIME_BOUNDS[-1][1]:
        assert primality._strong_probable_prime(PSI_13, d, r, a), a
    assert not primality._strong_lucas_probable_prime(PSI_13)
    assert not is_prime_big(PSI_13)


def test_past_the_size_bound_raises_before_any_round(monkeypatch):
    def no_round(n, d, r, a):
        raise AssertionError("a round ran past the bound")

    monkeypatch.setattr(primality, "_strong_probable_prime", no_round)
    for n in (10**4000 + 1, 1 << primality._MAX_TEST_BITS):
        with pytest.raises(BoundError) as info:
            is_prime_big(n)
        assert str(n.bit_length()) in str(info.value) and len(str(info.value)) < 80
    # 2**9942 - 1 (mersenne_properties' 2m + 1 at p = 9941) and the
    # largest n of _MAX_TEST_BITS bits are in bounds: 3 divides both, so
    # the gcd with 251# rejects them before any round
    for n in ((1 << 9942) - 1, (1 << primality._MAX_TEST_BITS) - 1):
        assert not is_prime_big(n)
