from __future__ import annotations

import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import goldbach, primality
from ova360.cli import dispatch
from ova360.errors import BoundError, DomainError
from ova360.goldbach import (
    GoldbachScanReport,
    HalfParity,
    average_of_two_primes,
    bertrand_construction,
    decompose_even,
    interval_sum_check,
    ova_combination_check,
    scan,
    symmetric_pair_check,
)
from ova360.primality import is_prime


def test_decompose_even_examples():
    assert (decompose_even(6).p, decompose_even(6).q) == (3, 3)
    assert (decompose_even(10).p, decompose_even(10).q) == (3, 7)
    assert (decompose_even(100).p, decompose_even(100).q) == (3, 97)


def test_decompose_even_validation():
    for n in (4, 5, 7, 0, -6):
        with pytest.raises(DomainError):
            decompose_even(n)


@given(st.integers(min_value=3, max_value=5000))
@settings(max_examples=150, deadline=None)
def test_decompose_even_witness_properties(half):
    n = 2 * half
    w = decompose_even(n)
    assert w.p + w.q == n
    assert w.p <= w.q
    assert w.p % 2 == 1 and w.q % 2 == 1
    assert is_prime(w.p) and is_prime(w.q)
    # smallest-p convention
    for p in range(3, w.p, 2):
        assert not (is_prime(p) and is_prime(n - p))


def test_scan_small():
    r = scan(100)
    assert r.checked == 48
    assert r.failures == ()
    assert r.max_smallest_p == 19
    assert r.argmax_n == 98


def test_scan_1e4():
    r = scan(10**4)
    assert r.failures == ()
    assert r.max_smallest_p == 173
    assert r.argmax_n == 7426


def test_scan_limit_6():
    r = scan(6)
    assert r.checked == 1
    assert r.failures == ()
    assert r.four_prime_witness is None


def test_scan_four_prime_witness():
    r = scan(1000)
    assert r.four_prime_n == 1000
    a, b, p, q = r.four_prime_witness
    assert (a, b) == (3, 3)
    assert a + b + p + q == 1000
    assert all(x % 2 == 1 and is_prime(x) for x in (a, b, p, q))


def _reference_report(limit, smallest_p):
    ns = range(6, limit + 1, 2)
    ps = [smallest_p[n] for n in ns]
    four = None
    if limit >= 12 and smallest_p[limit - 6]:
        p = smallest_p[limit - 6]
        four = (3, 3, p, limit - 6 - p)
    return GoldbachScanReport(
        limit=limit,
        checked=len(ns),
        max_smallest_p=max(ps),
        argmax_n=ns[ps.index(max(ps))],
        failures=tuple(n for n, p in zip(ns, ps) if not p),
        four_prime_n=limit if four else None,
        four_prime_witness=four,
    )


def _reference_csv(limit, smallest_p):
    rows = (f"{n},{smallest_p[n]},{n - smallest_p[n]}\n"
            for n in range(6, limit + 1, 2))
    return ("n,p,q\n" + "".join(rows)).encode()


def _scan_smallest_p(limit):
    """n -> smallest p for every even n in [6, limit], from the blocks
    scan(limit) passes to on_block."""
    return _scan_with_rows(limit)[1]


def _scan_with_rows(limit):
    """scan(limit, on_block) and the n -> smallest p it passed on."""
    got = {}

    def collect(first, best):
        got.update(zip(range(first, first + 2 * best.size, 2), best.tolist()))

    return scan(limit, on_block=collect), got


def test_scan_blocks_match_trial_division(oracle_goldbach_p):
    assert _scan_smallest_p(20000) == {
        n: oracle_goldbach_p[n] for n in range(6, 20001, 2)}


@st.composite
def _limits_near_block_edges(draw):
    """(block_evens, segment_odds, limit): limits within two evens of a
    block boundary, for the module's block size or a small one, or tiny,
    streamed in the module's segments or small ones. Segments of 1, 7 or
    180 odds are drawn only under small blocks, whose limits stay below
    200: under BLOCK_EVENS the limits reach about 2^20, thousands of
    such segments."""
    from ova360 import primality

    block = draw(st.one_of(st.just(goldbach.BLOCK_EVENS),
                           st.integers(min_value=1, max_value=40)))
    small = (1, 7, 180) if block <= 40 else ()
    segment_odds = draw(st.sampled_from((*small, 1000, primality.SEGMENT_ODDS)))
    special = draw(st.sampled_from([None, 6, 8, 12, 14]))
    if special is not None:
        return block, segment_odds, special
    k = draw(st.integers(min_value=0, max_value=2))
    delta = draw(st.sampled_from([-4, -2, 0, 2, 4]))
    return block, segment_odds, max(6, 6 + 2 * block * k + delta)


@given(case=_limits_near_block_edges())
@settings(max_examples=40, deadline=None)
def test_scan_matches_reference_across_block_edges(case, oracle_goldbach_p):
    from ova360 import primality

    block, segment_odds, limit = case
    with mock.patch.object(goldbach, "BLOCK_EVENS", block), \
            mock.patch.object(primality, "SEGMENT_ODDS", segment_odds), \
            tempfile.TemporaryDirectory() as tmp:
        assert scan(limit) == _reference_report(limit, oracle_goldbach_p)
        path = Path(tmp) / "w.csv"
        with redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            rc = dispatch(["goldbach", "scan", "--limit", str(limit),
                           "--emit-witnesses", str(path)])
        assert rc == 0
        assert path.read_bytes() == _reference_csv(limit, oracle_goldbach_p)


def _scan_blocks(scan_fn, limit):
    """The report and every n's p in order, asserting that the blocks
    on_block receives follow each other from 6 to limit."""
    rows = []

    def collect(first, best):
        assert first == 6 + 2 * len(rows)
        rows.extend(best.tolist())

    report = scan_fn(limit, on_block=collect)
    assert len(rows) == (limit - 6) // 2 + 1
    return report, rows


def test_scan_stream_matches_whole_bitmap(monkeypatch, reference_whole_bitmap_scan):
    from ova360 import primality

    for limit in range(6, 3001, 2):
        assert _scan_blocks(scan, limit) == _scan_blocks(
            reference_whole_bitmap_scan, limit), limit
    seg = primality.SEGMENT_ODDS
    for limit in (2 * seg - 2, 2 * seg, 2 * seg + 2, 4 * seg + 4):
        assert _scan_blocks(scan, limit) == _scan_blocks(
            reference_whole_bitmap_scan, limit), limit
    # blocks that span several segments, and segments holding many blocks
    for segment_odds in (1, 7, 180, 1000):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for block in (3, 64, goldbach.BLOCK_EVENS):
            monkeypatch.setattr(goldbach, "BLOCK_EVENS", block)
            for j in (1, 2, 5):
                for limit in (2 * j * segment_odds + d for d in (-2, 0, 2)):
                    if limit >= 6:
                        assert _scan_blocks(scan, limit) == _scan_blocks(
                            reference_whole_bitmap_scan, limit), (
                                segment_odds, block, limit)
    # Segments shorter than a block, so that every block is cut at a
    # segment edge, over several blocks. And limits whose last block ends
    # on a segment edge, so that one more segment, the bit of limit - 1
    # alone, streams and completes no even.
    monkeypatch.setattr(goldbach, "BLOCK_EVENS", 64)
    for segment_odds in (1, 7, 32):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        edge = 2 * segment_odds * (600 // segment_odds) + 2
        for limit in (*range(1024, 1033, 2), edge - 2 * segment_odds, edge):
            assert _scan_blocks(scan, limit) == _scan_blocks(
                reference_whole_bitmap_scan, limit), (segment_odds, limit)


def test_scan_trial_fallback_matches_whole_bitmap(monkeypatch,
                                                  reference_whole_bitmap_scan):
    from ova360 import primality

    def no_trial(n):
        raise AssertionError("the window's primes ran out")

    monkeypatch.setattr(goldbach, "is_prime", no_trial)
    assert scan(10**6).max_smallest_p == 523
    trials = []

    def counted(n):
        trials.append(n)
        return is_prime(n)

    monkeypatch.setattr(goldbach, "is_prime", counted)
    monkeypatch.setattr(primality, "SEGMENT_ODDS", 180)
    for block in (64, goldbach.BLOCK_EVENS):
        monkeypatch.setattr(goldbach, "BLOCK_EVENS", block)
        for window_p in (1, 3, 13, 97):
            monkeypatch.setattr(goldbach, "MAX_WINDOW_P", window_p)
            for limit in (6, 8, 100, 362, 1000, 3000):
                assert _scan_blocks(scan, limit) == _scan_blocks(
                    reference_whole_bitmap_scan, limit), (block, window_p, limit)
    assert trials


@pytest.mark.parametrize("chunk", [1, 3, goldbach.GATHER_CHUNK])
@pytest.mark.parametrize("dense_below", [3, goldbach.DENSE_PEEL_BELOW])
def test_gathers_match_trial_division_in_any_chunk(monkeypatch, oracle_goldbach_p,
                                                   chunk, dense_below):
    # with no dense prime the gathers resolve every n; blocks of 64 evens
    # leave each its own gathers, and a chunk of 3 ends inside them
    monkeypatch.setattr(goldbach, "GATHER_CHUNK", chunk)
    monkeypatch.setattr(goldbach, "DENSE_PEEL_BELOW", dense_below)
    monkeypatch.setattr(goldbach, "BLOCK_EVENS", 64)
    assert _scan_smallest_p(20000) == {
        n: oracle_goldbach_p[n] for n in range(6, 20001, 2)}
    assert scan(20000) == _reference_report(20000, oracle_goldbach_p)


def test_scan_failure_is_reported_never_patched(bitmap_without_three):
    r = scan(100)
    assert 6 in r.failures
    assert r.checked == 48
    assert _scan_smallest_p(100)[6] == 0


@pytest.mark.parametrize("dense_below", [goldbach.DENSE_PEEL_BELOW, 3])
def test_scan_failure_is_reported_from_peel_and_gathers(bitmap_without_three,
                                                        dense_below):
    # 6 and 8 need p = 3: with the default cutoff the peel would resolve
    # them, with 3 there is no dense prime and the gathers would
    with mock.patch.object(goldbach, "DENSE_PEEL_BELOW", dense_below):
        assert scan(100).failures == (6, 8)
        got = _scan_smallest_p(100)
    assert got[6] == got[8] == 0
    assert got[10] == 5  # 3 + 7 is read without 3, so 5 + 5


def _near_block_edges(block):
    """Even limits within 4 of the first few block edges."""
    return [limit for k in (1, 2, 3, 10)
            for limit in range(6 + 2 * block * k - 6, 6 + 2 * block * k + 3, 2)]


_SMALL_LIMITS = [*range(6, 601, 2), 3000, 20000]


@pytest.mark.parametrize("name, value, limits", [
    (None, None, range(6, 2001, 2)),
    ("BLOCK_EVENS", 3, _near_block_edges(3)),
    ("BLOCK_EVENS", 64, _near_block_edges(64)),
    ("DENSE_PEEL_BELOW", 3, _SMALL_LIMITS),
    ("DENSE_PEEL_BELOW", 1621, _SMALL_LIMITS),
    ("MAX_WINDOW_P", 13, _SMALL_LIMITS),  # the trial fallback resolves
    ("MAX_WINDOW_P", 97, _SMALL_LIMITS),
])
def test_scan_report_is_the_same_with_and_without_on_block(monkeypatch, name,
                                                           value, limits):
    if name is not None:
        monkeypatch.setattr(goldbach, name, value)
    for limit in limits:
        _assert_modes_agree(limit)


def _assert_modes_agree(limit):
    """scan(limit) equals the scan with on_block, and both equal the
    report built from the rows on_block receives."""
    report, rows = _scan_with_rows(limit)
    assert scan(limit) == report == _reference_report(limit, rows), limit


@pytest.mark.parametrize("block", [3, 64, goldbach.BLOCK_EVENS])
def test_scan_report_is_the_same_in_both_modes_when_every_left_n_fails(
        bitmap_without_three, monkeypatch, block):
    monkeypatch.setattr(goldbach, "BLOCK_EVENS", block)
    for limit in (*range(6, 401, 2), 3000):
        assert scan(limit).failures == (6, 8)[:(limit - 4) // 2]
        _assert_modes_agree(limit)


def test_scan_without_on_block_counts_no_block_with_a_gathered_p(monkeypatch):
    # the peel counts the dense primes per n, for p to be read off the
    # counts, only for the witness rows or a block whose top is dense
    peel = goldbach._dense_peel
    counted = []

    def spy_peel(half, m, window, off, dense, tried):
        counted.append(tried is not None)
        return peel(half, m, window, off, dense, tried)

    monkeypatch.setattr(goldbach, "_dense_peel", spy_peel)
    r = scan(10**6)
    assert (r.max_smallest_p, r.argmax_n, r.failures) == (523, 503222, ())
    assert counted == [False, False]
    scan(10**6, on_block=lambda first, best: None)
    assert counted[2:] == [True, True]


# 1621 is the largest cutoff with at most 255 odd primes below it, the
# most the uint8 count in _dense_peel holds
_DENSE_CUTOFFS = (3, 5, 80, goldbach.DENSE_PEEL_BELOW, 1621)
_BLOCKS = (3, 64, goldbach.BLOCK_EVENS)


def test_dense_prime_count_fits_the_uint8_counter(oracle_primes_10k):
    def below(cutoff):  # exact up to 255: there are more below 1e4 alone
        return len([p for p in oracle_primes_10k if 2 < p < cutoff])

    top = np.iinfo(np.uint8).max
    assert below(goldbach.DENSE_PEEL_BELOW) <= top
    assert below(_DENSE_CUTOFFS[-1]) == top < below(_DENSE_CUTOFFS[-1] + 1)


def _peel_lists(oracle_primes_10k):
    """Every prefix of the odd primes below the largest cutoff, the list
    without 3 (as under bitmap_without_three), lists in which no distance
    between two offsets recurs, (3,) and (3, 5, 11), and one with pairs
    but no quadruple, (3, 5, 7)."""
    odd = [p for p in oracle_primes_10k if 2 < p < _DENSE_CUTOFFS[-1]]
    return [*(tuple(odd[:k]) for k in range(1, len(odd) + 1)),
            tuple(odd[1:53]), (3,), (3, 5, 11), (3, 5, 7)]


def _plan_offsets(plan):
    """Every offset the plan's starts cover, once per start covering it."""
    gaps = [gap for gap, _ in plan[1:]]
    covered = []
    for k, (_, starts) in enumerate(plan):
        shape = [0]
        for gap in gaps[:k]:
            shape += [s + gap for s in shape]
        covered += [o + s for o in starts for s in shape]
    return sorted(covered)


def test_peel_plan_covers_each_offset_once(oracle_primes_10k):
    for dense in _peel_lists(oracle_primes_10k):
        plan = goldbach._peel_plan(dense)
        top = (dense[-1] + 1) >> 1
        assert plan[0][0] == 0 and all(gap > 0 for gap, _ in plan[1:]), dense
        assert _plan_offsets(plan) == sorted(top - ((p + 1) >> 1) for p in dense), dense
        passes = len(plan) - 1 + sum(len(starts) for _, starts in plan)
        assert passes <= len(dense), dense
    # the 53 odd primes below DENSE_PEEL_BELOW: two mask builds and 27 ANDs
    dense = tuple(p for p in oracle_primes_10k if 2 < p < goldbach.DENSE_PEEL_BELOW)
    plan = goldbach._peel_plan(dense)
    assert len(dense) == 53
    assert len(plan) - 1 + sum(len(starts) for _, starts in plan) == 29


def test_dense_peel_matches_one_and_per_prime(oracle_primes_10k):
    rng = np.random.default_rng(7)
    for dense in _peel_lists(oracle_primes_10k):
        top = (dense[-1] + 1) >> 1
        for half, m in ((10_000, 300), (10_001, 77)):
            off = half - top - int(rng.integers(0, 5))
            window = rng.random(half + m - off + 3) < 0.3
            want = np.ones(m, dtype=bool)
            for p in dense:
                lo = half - ((p + 1) >> 1) - off
                want &= ~window[lo:lo + m]
            got = goldbach._dense_peel(half, m, window, off, list(dense), None)
            assert got.tolist() == want.tolist(), (dense, half)


@st.composite
def _kernel_inputs(draw):
    """(dense_below, window_p, first, last, off) for one block: the
    first block (where n - p < 3 occurs) or a later one, cut short as a
    scan's last block may be, with its window starting anywhere from
    -reach, the start of _smallest_p_blocks' zero padding, to the
    lowest bit the block reads."""
    dense_below = draw(st.sampled_from(_DENSE_CUTOFFS))
    block = draw(st.sampled_from(_BLOCKS))
    # a small window_p leaves n to the trial fallback: only in small blocks
    window_p = draw(st.sampled_from((goldbach.MAX_WINDOW_P,) if block > 64
                                    else (goldbach.MAX_WINDOW_P, 97, 13)))
    reach = (window_p + 1) >> 1
    k = draw(st.one_of(st.just(0), st.integers(0, (2 * reach) // (2 * block) + 3)))
    first = 6 + 2 * block * k
    m = draw(st.one_of(st.just(block), st.integers(1, block)))
    low = (first >> 1) - reach
    off = draw(st.one_of(st.just(low), st.integers(-reach, low)))
    return dense_below, window_p, first, first + 2 * (m - 1), off


@given(case=_kernel_inputs())
@settings(max_examples=150, deadline=None)
def test_block_kernel_matches_masked_scatter(case, reference_odd_prime_bitmap,
                                             reference_block_smallest_p):
    dense_below, window_p, first, last, off = case
    bitmap = reference_odd_prime_bitmap(6 + 8 * goldbach.BLOCK_EVENS)
    primes = [2 * i + 1 for i in np.flatnonzero(bitmap[: (window_p + 1) >> 1]).tolist()]
    # zeros for the bits below 0, then the bitmap to bit last/2 - 2, no further
    window = np.concatenate((np.zeros(max(-off, 0), dtype=bool),
                             bitmap[max(off, 0) : (last >> 1) - 1]))
    with mock.patch.object(goldbach, "DENSE_PEEL_BELOW", dense_below), \
            mock.patch.object(goldbach, "MAX_WINDOW_P", window_p):
        want = reference_block_smallest_p(first, last, window, off, primes)
        m = want.size
        for every in (True, False):
            for probe in (-1, 0, m - 1, int(np.argmax(want))):
                got = goldbach._block_smallest_p(first, last, window, off,
                                                 primes, every, first + 2 * probe)
                _assert_block(got, want, every, probe)


def _assert_block(got, want, every, probe):
    """got, a kernel's _Block, sums up want, every n's p by the
    reference; its best is want itself in the every mode."""
    top_at = int(np.argmax(want))
    assert (got.top, got.top_at) == (int(want[top_at]), top_at)
    assert got.failed.tolist() == np.flatnonzero(want == 0).tolist()
    assert got.probe_p == (int(want[probe]) if 0 <= probe < want.size else 0)
    assert want.dtype == np.int64
    if every or got.best is not None:
        assert got.best.dtype == np.int64
        assert got.best.tolist() == want.tolist()


def _past_reach(span: int) -> int:
    """Half of a limit two blocks of span evens past the window's reach,
    whose last block is completed by a segment of at most 1000 odds that
    starts past the reach, so that its window's offset is past 0."""
    return (goldbach.MAX_WINDOW_P >> 1) + 2 * span + 1002


@st.composite
def _scan_limits(draw):
    """(dense_below, block, segment_odds, limit): a limit inside the
    first few blocks, or, for blocks of 64 evens and more, one past
    the first block whose window has an offset past 0. A block is cut
    at each segment edge, so it spans at most min(block, segment_odds)
    evens past the first segment."""
    from ova360 import primality

    dense_below = draw(st.sampled_from(_DENSE_CUTOFFS))
    block = draw(st.sampled_from(_BLOCKS))
    segment_odds = draw(st.sampled_from((180, 1000, primality.SEGMENT_ODDS)))
    near = st.integers(3, min(3 * block + 3, 200))
    span = min(block, segment_odds)
    far = _past_reach(span)
    half = draw(near if block == 3 else st.one_of(near, st.integers(far, far + 2 * span)))
    return dense_below, block, segment_odds, 2 * half


@given(case=_scan_limits())
@settings(max_examples=30, deadline=None)
def test_scan_blocks_match_masked_scatter(case, reference_block_smallest_p):
    from ova360 import primality

    dense_below, block, segment_odds, limit = case
    kernel = goldbach._block_smallest_p
    offs = []

    def both(first, last, window, off, primes, every, probe_n):
        got = kernel(first, last, window, off, primes, every, probe_n)
        want = reference_block_smallest_p(first, last, window, off, primes)
        _assert_block(got, want, every, (probe_n - first) // 2)
        offs.append(off)
        return got

    # each mode: the witness rows' counts, and the peel that skips them
    for on_block in (lambda first, best: None, None):
        offs.clear()
        with mock.patch.object(goldbach, "DENSE_PEEL_BELOW", dense_below), \
                mock.patch.object(goldbach, "BLOCK_EVENS", block), \
                mock.patch.object(primality, "SEGMENT_ODDS", segment_odds), \
                mock.patch.object(goldbach, "_block_smallest_p", both):
            scan(limit, on_block)
        assert len(offs) == len(_scan_block_edges(limit, block, segment_odds))
        if segment_odds <= 1000 and limit >= 2 * _past_reach(min(block, segment_odds)):
            assert offs[-1] > 0


def _scan_block_edges(limit, block, segment_odds):
    """(first, last) of each scan block: each ends at the earliest of
    first + 2 (block - 1), limit and 2 * end + 2, for the end of the
    first segment whose 2 * end + 2 reaches first."""
    edges, first = [], 6
    while first <= limit:
        end = segment_odds * max(1, -(-((first >> 1) - 1) // segment_odds))
        last = min(first + 2 * (block - 1), limit, 2 * end + 2)
        edges.append((first, last))
        first = last + 2
    return edges


def test_scan_blocks_end_at_segment_edges(monkeypatch):
    from ova360 import primality

    kernel = goldbach._block_smallest_p
    read = []

    def spy(first, last, window, off, primes, every, probe_n):
        read.append((first, last))
        return kernel(first, last, window, off, primes, every, probe_n)

    monkeypatch.setattr(goldbach, "_block_smallest_p", spy)
    # small blocks only over small segments: a default segment holds
    # about 2^18 blocks of 3 evens
    cases = [(segment_odds, block) for segment_odds in (1, 7, 180, 1000)
             for block in (3, 64, goldbach.BLOCK_EVENS)]
    for segment_odds, block in [*cases, (primality.SEGMENT_ODDS, goldbach.BLOCK_EVENS)]:
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        monkeypatch.setattr(goldbach, "BLOCK_EVENS", block)
        edge = 2 * segment_odds * 3 + 2
        for limit in (6, 8, 100, edge - 2, edge, edge + 2, 1000):
            want = _scan_block_edges(limit, block, segment_odds)
            got = []
            read.clear()
            scan(limit, on_block=lambda first, best: got.append(
                (first, first + 2 * (best.size - 1))))
            assert got == read == want, (segment_odds, block, limit)
            read.clear()
            scan(limit)
            assert read == want, (segment_odds, block, limit)


def test_scan_blocks_consistent():
    got = _scan_smallest_p(200)
    assert list(got) == list(range(6, 201, 2))
    for n, p in got.items():
        assert is_prime(p) and is_prime(n - p)


def test_bertrand_construction_examples():
    c = bertrand_construction(20)
    assert (c.rho_f, c.f, c.k) == (17, 1, 4)
    assert c.half_parity is HalfParity.EVEN_HALF
    c = bertrand_construction(16)
    assert (c.rho_f, c.f) == (13, 1)
    c = bertrand_construction(8)
    assert (c.rho_f, c.f) == (5, 1)


@given(st.integers(min_value=4, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_bertrand_construction_properties(half):
    n = 2 * half
    c = bertrand_construction(n)
    assert is_prime(c.rho_f)
    assert n // 2 <= c.rho_f < n - 2
    assert c.rho_f == n - (2 * c.f + 1)
    assert 0 < c.f <= Fraction(n, 4) - Fraction(1, 2)
    assert c.k.denominator == 1  # k is integral in both parity branches
    if (n // 2) % 2 == 1:
        assert c.rho_f == n // 2 + 2 * c.k
    else:
        assert c.rho_f == n // 2 + 2 * c.k - 1
    # no prime between rho_f and n-2
    for m in range(c.rho_f + 1, n - 2):
        assert not is_prime(m)


def test_interval_sum_check_n20():
    r = interval_sum_check(20)
    assert r.violations == ()
    assert r.pairs_checked > 0


def test_interval_sum_check_n12_counts_empty_windows():
    r = interval_sum_check(12)
    assert r.violations == ()
    assert r.empty_windows >= 0
    assert r.sampled == 2


def test_interval_sum_check_n100_exactness_is_an_observation():
    # the windows around n/2 exclude their own endpoint primes for
    # n=100, so no sampled pair sums to exactly 100 even though
    # 100 = 53 + 47; exactness is reported, never asserted
    r = interval_sum_check(100)
    assert r.violations == ()
    assert r.has_exact is False


def test_interval_sum_check_some_n_do_achieve_exactness():
    hits = [n for n in range(12, 120, 2) if interval_sum_check(n).has_exact]
    assert hits  # exactness does occur, just not universally


def test_interval_sum_exact_pairs_never_when_4_divides_n():
    # the upper window (w/2, w) at w = n/2 + 1 + 2k meets n minus the
    # lower window only in (n/2 - 1 + 2k, n/2 + 1 + 2k), so the one
    # candidate is rho = n/2 + 2k, which is even when n/2 is
    for n in range(12, 4001, 4):
        assert interval_sum_check(n).exact_pairs == (), n


def test_interval_sum_exact_pairs_are_the_symmetric_pairs():
    # for odd n/2 the exact pairs are n/2 + 2k, n/2 - 2k over the k of
    # symmetric_pair_check: the windows reach n only where a Goldbach
    # pair already sits symmetrically about n/2
    for n in range(14, 4001, 4):
        half = n // 2
        got = sorted((rho, q) for _, rho, q in interval_sum_check(n).exact_pairs)
        want = [(half + 2 * k, half - 2 * k) for k in symmetric_pair_check(n).k_values]
        assert got == want, n


@given(st.integers(min_value=6, max_value=400))
@settings(max_examples=100, deadline=None)
def test_interval_sum_inequality_3r(half):
    n = 2 * half
    if n < 12:
        return
    r = interval_sum_check(n)
    assert r.violations == ()


def test_interval_sum_check_matches_fraction_oracle(
        reference_interval_sum_check, oracle_prime_set_10k):
    for n in range(12, 801, 2):
        assert interval_sum_check(n) == reference_interval_sum_check(
            n, oracle_prime_set_10k), n


def _assert_same_report(got, want):
    # the canonical JSON is what a digest of the report pins: a numpy
    # scalar field compares equal but renders as a quoted string
    def canonical(report):
        return json.dumps(dataclasses.asdict(report), sort_keys=True, default=str)

    assert got == want and canonical(got) == canonical(want), want.n


def test_interval_sum_check_matches_loop_oracle(reference_interval_sum_loop):
    for n in [*range(12, 2001, 2), 39998, 40000]:
        _assert_same_report(interval_sum_check(n), reference_interval_sum_loop(n))


@given(st.integers(min_value=6, max_value=2 * 10**4))
@settings(max_examples=5, deadline=None)
def test_interval_sum_check_matches_loop_oracle_sampled(
        reference_interval_sum_loop, half):
    n = 2 * half
    _assert_same_report(interval_sum_check(n), reference_interval_sum_loop(n))


def test_interval_sum_check_enumerates_violating_pairs(monkeypatch):
    # a fault that widens every window (w/2, w) by one prime on each
    # side must come out as the exact list of violating pairs, in
    # blocks of 7 f too, so that the f labels cross block edges
    bounds = goldbach._window_bounds

    def widened(primes, w):
        lo, hi = bounds(primes, w)
        return np.maximum(lo - 1, 0), np.minimum(hi + 1, primes.size)

    monkeypatch.setattr(goldbach, "_window_bounds", widened)
    n = 100
    primes = [p for p in range(2, n + 1) if is_prime(p)]
    want, pairs = [], 0
    for f in range(1, (n - 2) // 4 + 1):
        k = n // 4 - f
        windows = []
        for w in (n // 2 + 1 + 2 * k, n // 2 + 1 - 2 * k):
            inside = [i for i, p in enumerate(primes) if w < 2 * p < 2 * w]
            windows.append(primes[max(inside[0] - 1, 0) : inside[-1] + 2])
        upper, lower = windows
        pairs += len(upper) * len(lower)
        want += [(f, rho, q) for rho in upper for q in lower
                 if not n // 2 + 1 < rho + q <= n]
    # both sides of the bound: 47 + 2 <= n/2 + 1 and 97 + 5 > n
    assert {(1, 47, 2), (2, 97, 5)} <= set(want)
    for block in (7, goldbach._INTERVAL_BLOCK_F):
        monkeypatch.setattr(goldbach, "_INTERVAL_BLOCK_F", block)
        r = interval_sum_check(n)
        assert (r.violations, r.pairs_checked) == (tuple(want), pairs), block


def test_interval_sum_pairs_checked_is_exact_past_int64(monkeypatch):
    # a fault that makes every window 3e9 primes long: the two f of
    # n = 12 then check 2 * 9e18 pairs, more than 2**63, in one block
    # or summed across two blocks of one f
    monkeypatch.setattr(goldbach, "_window_bounds", lambda primes, w: (
        np.zeros_like(w), np.full_like(w, 3 * 10**9)))
    for block in (1, goldbach._INTERVAL_BLOCK_F):
        monkeypatch.setattr(goldbach, "_INTERVAL_BLOCK_F", block)
        r = interval_sum_check(12)
        assert type(r.pairs_checked) is int
        assert r.pairs_checked == 2 * (3 * 10**9) ** 2


def test_interval_sum_check_is_the_same_in_blocks_of_7(monkeypatch):
    want = [interval_sum_check(n) for n in range(12, 4001, 2)]
    monkeypatch.setattr(goldbach, "_INTERVAL_BLOCK_F", 7)
    for n, report in zip(range(12, 4001, 2), want):
        _assert_same_report(interval_sum_check(n), report)


def test_window_checks_fail_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved past the bound")

    monkeypatch.setattr(goldbach, "odd_prime_segments", no_sieve)
    monkeypatch.setattr(goldbach, "sieve_primes", no_sieve)
    with pytest.raises(BoundError):
        interval_sum_check(goldbach.MAX_INTERVAL_SUM_N + 2)
    with pytest.raises(BoundError):
        symmetric_pair_check(goldbach.MAX_SYMMETRIC_N + 2)


def test_construction_bound_fails_before_testing(monkeypatch):
    top = goldbach.MAX_CONSTRUCT_N
    assert bertrand_construction(top).n == top

    def no_test(n):
        raise AssertionError("tested past the bound")

    monkeypatch.setattr(goldbach, "is_prime_big", no_test)
    with pytest.raises(BoundError):
        bertrand_construction(top + 2)


def test_decomposition_bound_fails_before_testing(monkeypatch):
    top = goldbach.MAX_CONSTRUCT_N
    assert decompose_even(top).p == 347
    assert goldbach.MAX_CONSTRUCT_N is primality.MAX_CONSTRUCT_N

    def no_test(n):
        raise AssertionError("tested past the bound")

    monkeypatch.setattr(goldbach, "is_prime", no_test)
    monkeypatch.setattr(goldbach, "is_prime_big", no_test)
    # the first even n past the bound, directly and as 2m
    with pytest.raises(BoundError, match="exceeds construction bound"):
        decompose_even(top + 2)
    with pytest.raises(BoundError, match="exceeds construction bound"):
        average_of_two_primes(top // 2 + 1)


def test_symmetric_pair_examples():
    r = symmetric_pair_check(10)
    assert r.exists_symmetric and 1 in r.k_values
    r = symmetric_pair_check(6)
    assert r.k_values == (0,)
    r = symmetric_pair_check(128)
    assert r.exists_symmetric and 2 in r.k_values  # 64 +- 3 -> (61, 67)


def test_symmetric_matches_decomposition_existence():
    for n in range(6, 3000, 2):
        assert symmetric_pair_check(n).exists_symmetric
        # equivalence: decompose_even never raises on this range
        decompose_even(n)


def test_symmetric_matches_per_pair_lookup(oracle_prime_set_10k):
    for n in range(6, 3001, 2):
        half = n // 2
        want = []
        for k in range(n // 4 + 1):
            offset = 2 * k if half % 2 == 1 else 2 * k - 1
            lo, hi = half - offset, half + offset
            if offset >= 0 and lo >= 3 and {lo, hi} <= oracle_prime_set_10k:
                want.append(k)
        assert symmetric_pair_check(n).k_values == tuple(want), n


def test_symmetric_stream_matches_one_and(monkeypatch, reference_symmetric_ks):
    # small segments put the copy of the lower half and its mirrored
    # slice across segment ends; one-odd segments only to 1000, as
    # every segment costs a strike-loop pass
    from ova360 import primality

    seg = primality.SEGMENT_ODDS
    cases = [(seg, range(6, 3001, 2)),
             (seg, (2 * seg, 2 * seg + 2, 4 * seg - 2, 4 * seg + 2)),
             (1, range(6, 1001, 2))]
    cases += [(segment_odds, range(6, 3001, 2)) for segment_odds in (7, 180, 1000)]
    for segment_odds, ns in cases:
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        for n in ns:
            r = symmetric_pair_check(n)
            assert r.k_values == reference_symmetric_ks(n), (segment_odds, n)
            assert r.exists_symmetric == bool(r.k_values)


def test_symmetric_pairs_are_valid():
    for n in (50, 128, 1000):
        r = symmetric_pair_check(n)
        half = n // 2
        for k in r.k_values:
            offset = 2 * k if half % 2 == 1 else 2 * k - 1
            assert is_prime(half - offset) and is_prime(half + offset)
            assert (half - offset) + (half + offset) == n


def test_average_of_two_primes():
    assert average_of_two_primes(2) == (2, 2)
    assert average_of_two_primes(3) == (3, 3)
    assert average_of_two_primes(50) == (3, 97)
    with pytest.raises(DomainError):
        average_of_two_primes(1)


@pytest.mark.parametrize("check, value, error, message", [
    (decompose_even, 4, DomainError, "n must be even and >= 6, got 4"),
    # a 301-digit bound would make a 301-digit test id
    pytest.param(decompose_even, goldbach.MAX_CONSTRUCT_N + 2, BoundError,
                 f"n {goldbach.MAX_CONSTRUCT_N + 2} exceeds construction bound "
                 f"{goldbach.MAX_CONSTRUCT_N}", id="decompose_even-past"),
    (interval_sum_check, 10, DomainError, "n must be even and >= 12, got 10"),
    (interval_sum_check, goldbach.MAX_INTERVAL_SUM_N + 2, BoundError,
     "n 10000002 exceeds interval-sum bound 10000000"),
    (symmetric_pair_check, 4, DomainError, "n must be even and >= 6, got 4"),
    (symmetric_pair_check, goldbach.MAX_SYMMETRIC_N + 2, BoundError,
     "n 100000002 exceeds symmetric-pair bound 100000000"),
    (average_of_two_primes, 1, DomainError, "m must be >= 2, got 1"),
], ids=lambda v: getattr(v, "__name__", None))
def test_range_checks_name_the_value_and_the_bound(check, value, error, message):
    with pytest.raises(error) as info:
        check(value)
    assert type(info.value) is error and str(info.value) == message


def test_combination_example_large():
    r = ova_combination_check(15486059, 32452451)
    assert r.hits == (103, 163, 173, 179, 283, 341, 353)
    assert r.gamma_sum == 43016 + 90145
    assert 103 + 360 * r.gamma_sum == 47938063
    assert set(r.hits) <= set(r.candidates)


def test_combination_example_wide():
    r = ova_combination_check(373586501, 101)
    assert r.hits == (13, 67, 101, 157, 161, 167, 181, 199)


def test_combination_trivial():
    r = ova_combination_check(2, 2)
    assert 3 in r.candidates and 3 in r.hits


def test_combination_zero_hit_counterexample():
    # non-empty hits is only a conjecture; this prime pair refutes it
    r = ova_combination_check(1919881, 8440231)
    assert r.candidates == (3, 5, 11, 17, 23, 29, 31)
    assert r.hits == ()


def test_combination_requires_primes():
    with pytest.raises(DomainError):
        ova_combination_check(4, 7)


def test_combination_monte_carlo_rate():
    import random

    from ova360.primality import sieve_primes

    primes = sieve_primes(10**6).tolist()
    rng = random.Random(360)
    trials, nonempty = 400, 0
    for _ in range(trials):
        p1, p2 = rng.choice(primes), rng.choice(primes)
        if ova_combination_check(p1, p2).hits:
            nonempty += 1
    assert nonempty / trials > 0.95  # high, but provably not 1.0
