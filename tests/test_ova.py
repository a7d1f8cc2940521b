from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import goldens, ova
from ova360.errors import BoundError, DomainError
from ova360.ova import (
    GenFuncFamily,
    ResidueClass,
    classify_residue,
    closure_check,
    decompose,
    digit_check,
    gcd_condition_check,
    genfunc_coefficients,
    germain_residues,
    ova_inverse,
    particular_closed_form,
    residue_sets,
    sum_digits_check,
    twin_residue_pairs,
)
from ova360.primality import sieve_primes


def test_decompose_examples():
    d = decompose(367)
    assert (d.ova, d.frequency) == (7, 1)
    d = decompose(359)
    assert (d.ova, d.frequency) == (359, 0)
    d = decompose(1129)
    assert (d.ova, d.frequency) == (49, 3)


def test_decompose_rejects_multiples_of_360():
    for v in (360, 720, 36000):
        with pytest.raises(DomainError):
            decompose(v)
    with pytest.raises(DomainError):
        decompose(0)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_decompose_roundtrip(v):
    if v % 360 == 0:
        return
    d = decompose(v)
    assert d.value == d.ova + 360 * d.frequency
    assert 0 < d.ova < 360


def test_residue_set_cardinalities():
    s = residue_sets()
    assert (len(s.A), len(s.B), len(s.Cstar), len(s.C)) == (72, 27, 99, 96)
    assert s.Cstar == s.A | s.B
    assert not s.A & s.B
    assert s.C == s.Cstar - {2, 3, 5}
    assert all(math.gcd(r, 360) == 1 for r in s.C)


def test_residue_sets_match_golden():
    s = residue_sets()
    assert sorted(s.A) == list(goldens.load_int_lines("set_a.txt"))
    assert sorted(s.B) == list(goldens.load_int_lines("set_b.txt"))


def test_residue_set_members():
    s = residue_sets()
    assert 49 in s.B and 49 not in s.A
    assert 1 in s.B
    assert {2, 3, 5} <= s.A


def test_classify_examples():
    assert classify_residue(7) is ResidueClass.IN_A
    assert classify_residue(161) is ResidueClass.IN_B
    assert classify_residue(4) is ResidueClass.NOT_A_RESIDUE
    with pytest.raises(DomainError):
        classify_residue(0)
    with pytest.raises(DomainError):
        classify_residue(360)


def test_digit_check_examples():
    r = digit_check(1619)
    assert r.last1_ok and not r.last2_applicable and r.last2_ok is None
    r = digit_check(7537)
    assert r.last2_applicable and r.last2_ok
    assert not r.last3_applicable
    r = digit_check(36299)
    assert r.last2_applicable and r.last2_ok
    assert r.last3_applicable and r.last3_ok


def test_digit_check_requires_prime():
    with pytest.raises(DomainError):
        digit_check(1618)


def test_inverse_examples():
    assert ova_inverse(7) == 103
    assert ova_inverse(43) == 67
    assert ova_inverse(1) == 1


def test_inverse_involution_all_96():
    c = residue_sets().C
    for z in c:
        w = ova_inverse(z)
        assert w in c
        assert (z * w) % 360 == 1
        assert ova_inverse(w) == z


def test_inverse_domain_errors():
    for z in (2, 3, 5, 4, 6, 360, 0):
        with pytest.raises(DomainError):
            ova_inverse(z)


def test_closure_examples():
    assert closure_check(7, 11, 10)
    assert closure_check(359, 359, 3)
    assert closure_check(1, 1, 100)
    with pytest.raises(DomainError):
        closure_check(2, 7, 3)


def test_closure_all_pairs():
    c = sorted(residue_sets().C)
    for a in c:
        for b in c:
            assert closure_check(a, b, 4)


def _closure_by_full_loop(c, maxpows: range) -> dict:
    """closure_check's verdict for every (a, b, maxpow), a and b in c,
    with every power a**n, n <= maxpow, tested."""
    verdicts = {}
    for a in c:
        for m in maxpows:
            powers = all(pow(a, n, 360) in c for n in range(1, m + 1))
            for b in c:
                verdicts[a, b, m] = (powers and (360 - a) in c
                                     and a * b % 360 in c)
    return verdicts


@pytest.mark.parametrize("dropped", [None, 1, 49])
def test_closure_check_equals_the_full_loop(monkeypatch, dropped):
    # the loop stops at min(maxpow, 12), lambda(360); with a unit dropped
    # from C (1, a power of every unit, or 49 = 7**2) the verdict turns
    # on maxpow, so a shorter loop would show
    sets = dataclasses.replace(residue_sets(), C=residue_sets().C - {dropped})
    monkeypatch.setattr(ova, "residue_sets", lambda: sets)
    c = sets.C
    want = _closure_by_full_loop(c, range(41))
    if dropped:
        assert len(set(want.values())) == 2
    for (a, b, m), verdict in want.items():
        assert closure_check(a, b, m) == verdict, (a, b, m)


def test_twin_pairs():
    pairs = twin_residue_pairs()
    assert len(pairs) == 35
    assert pairs[0] == (11, 13)
    assert pairs[-1] == (347, 349)
    assert (131, 133) in pairs
    assert (359, 1) not in pairs and (359, 361) not in pairs
    assert (91, 93) not in pairs
    c = residue_sets().C
    for a, b in pairs:
        assert b == a + 2 and a in c and b in c


def test_germain_contains_trivial_members():
    res = germain_residues(10**4)
    assert 5 in res  # q=2 -> 5
    assert 23 in res  # q=11 -> 23
    assert 7 in res  # q=3 -> 7


def test_germain_limit_validation():
    with pytest.raises(DomainError):
        germain_residues(6)


def test_germain_at_1e7():
    res = sorted(germain_residues(10**7))
    assert res == [5, 7, 11, 23, 47, 59, 83, 107, 119, 143, 167, 179,
                   203, 227, 239, 263, 287, 299, 323, 347, 359]


def test_germain_matches_gathered_residues(reference_germain_residues):
    for limit in range(7, 5001):
        assert germain_residues(limit) == reference_germain_residues(limit), limit
    # the safe-prime mask folds by 90 odds, i.e. 360 values of 4i+3
    for k in (2777, 2778):
        for limit in range(360 * k - 4, 360 * k + 5):
            assert germain_residues(limit) == reference_germain_residues(limit), limit


def test_germain_stream_matches_whole_bitmap(monkeypatch,
                                             reference_whole_bitmap_germain):
    from ova360 import primality

    for limit in range(7, 3001):
        assert germain_residues(limit) == reference_whole_bitmap_germain(limit), limit
    seg = primality.SEGMENT_ODDS
    # past the 4096 prefix, around the default segment ends
    for limit in (2 * seg - 1, 2 * seg + 1, 4 * seg - 1, 4 * seg + 3, 4 * seg + 7):
        assert germain_residues(limit) == reference_whole_bitmap_germain(limit), limit
    # the prefix and the whole bitmap sieved in small segments
    for segment_odds in (1, 7, 180, 1000, 15016):
        monkeypatch.setattr(primality, "SEGMENT_ODDS", segment_odds)
        limits = list(range(7, 200)) + [
            edge + d for j in (1, 2, 5) for edge in (2 * j * segment_odds,
                                                     4 * j * segment_odds)
            for d in (-2, -1, 0, 1, 2, 3)]
        limits += list(range(360 * 29 - 4, 360 * 29 + 5))
        for limit in limits:
            if limit >= 7:
                assert germain_residues(limit) == reference_whole_bitmap_germain(
                    limit), (segment_odds, limit)


def test_safe_prime_classes_are_the_classes_that_occur(reference_germain_residues):
    # derived from the congruences alone, and equal to what safe primes
    # below 1e5 occupy: no class is missing and none is impossible
    assert ova.SAFE_PRIME_CLASSES == reference_germain_residues(10**5)
    assert len(ova.SAFE_PRIME_CLASSES) == 21


def test_germain_stops_once_every_class_has_a_witness(monkeypatch,
                                                      reference_germain_residues):
    # 323 is the last class to appear, at 3203 = 2 * 1601 + 1
    for limit in range(3190, 3221):
        got = germain_residues(limit)
        assert got == reference_germain_residues(limit), limit
        assert (got == ova.SAFE_PRIME_CLASSES) == (limit >= 3203), limit
    calls = []
    real = ova.sieve_primes
    monkeypatch.setattr(ova, "sieve_primes",
                        lambda limit: calls.append(limit) or real(limit))
    for limit in (7, 3202, 3203, 4096, 4097, 10**9, 10**10):
        calls.clear()
        got = germain_residues(limit)
        assert calls == [min(limit, 4096)], limit
        assert (got == ova.SAFE_PRIME_CLASSES) == (limit >= 3203), limit


def test_germain_past_the_prefix_checks_every_class(monkeypatch):
    # 187 cannot occur (q = 93 mod 180 is divisible by 3), so with it
    # among the classes the prefix cannot stand for a larger limit
    classes = ova.SAFE_PRIME_CLASSES
    monkeypatch.setattr(ova, "SAFE_PRIME_CLASSES", classes | {187})
    with pytest.raises(AssertionError, match=r"miss classes \[187\]"):
        germain_residues(10**6)
    assert germain_residues(4096) == classes


def test_germain_report_diffs():
    # both golden lists include 187 and 191, which cannot occur:
    # a safe prime = 187 mod 360 means q = 93 mod 180, divisible by 3;
    # = 191 mod 360 means q = 95 mod 180, divisible by 5.
    computed = germain_residues(10**7)
    v1, v2 = (goldens.diff(name, computed)
              for name in ("germain_v1.txt", "germain_v2.txt"))
    assert not v1.clean and not v2.clean
    assert v1.missing_from_computed == (187, 191)
    assert v1.extra_in_computed == ()
    assert v1.duplicates_in_golden == ()
    assert v2.missing_from_computed == (187, 191)
    assert v2.duplicates_in_golden == (23,)


def test_golden_diff_sorts_and_reports_duplicates(tmp_path, monkeypatch):
    (tmp_path / "list.txt").write_text("9\n3\n7\n3\n9\n9\n1\n")
    monkeypatch.setenv("OVA360_GOLDEN", str(tmp_path))
    d = goldens.diff("list.txt", [8, 1, 2, 7])
    assert d == goldens.GoldenDiff(
        golden_name="list.txt",
        golden=(9, 3, 7, 3, 9, 9, 1),
        duplicates_in_golden=(3, 9),
        missing_from_computed=(3, 9),
        extra_in_computed=(2, 8),
    )
    assert not d.clean
    assert goldens.diff("list.txt", frozenset({1, 3, 7, 9})).clean


def test_germain_impossible_members():
    # directly verify the arithmetic behind the 187/191 exclusion
    for q in range(93, 4000, 180):
        assert q % 3 == 0
    for q in range(95, 4000, 180):
        assert q % 5 == 0


def test_genfunc_particular_matches_closed_form():
    coeffs = genfunc_coefficients("particular", 200)
    for j, c in enumerate(coeffs):
        assert c == particular_closed_form(j + 1), j


def test_genfunc_particular_first_values():
    assert genfunc_coefficients("particular", 3) == [7, 23, 37]
    assert particular_closed_form(1) == 7


def test_genfunc_twin_structure():
    coeffs = genfunc_coefficients("twin", 72, reduce=False)
    base = [11, 13, 17, 19, 29, 31]
    for j, c in enumerate(coeffs):
        assert c == base[j % 6] + 30 * (j // 6), j
    # the 72nd line wraps past 360: 361 reduces to 1
    assert coeffs[71] == 361
    assert genfunc_coefficients("twin", 72)[71] == 1


def test_genfunc_twin_members_are_twin_pairs():
    coeffs = genfunc_coefficients("twin", 70, reduce=False)
    pair_members = {m for p in twin_residue_pairs() for m in p}
    assert set(coeffs) == pair_members


def test_genfunc_full_covers_C():
    coeffs = genfunc_coefficients("full", 96)
    assert sorted(coeffs) == sorted(residue_sets().C)
    raw = genfunc_coefficients("full", 96 * 2, reduce=False)
    for j in range(96):
        assert raw[j + 96] == raw[j] + 360


def test_genfunc_full_structure():
    raw = genfunc_coefficients("full", 80, reduce=False)
    base = [7, 11, 13, 17, 19, 23, 29, 31]
    for j, c in enumerate(raw):
        assert c == base[j % 8] + 30 * (j // 8), j


def test_genfunc_family_aliases():
    assert genfunc_coefficients(GenFuncFamily.TWIN, 6) == \
        genfunc_coefficients("TwinLines", 6)
    with pytest.raises(DomainError):
        genfunc_coefficients("nonsense", 3)
    with pytest.raises(DomainError):
        genfunc_coefficients("full", 0)


def test_genfunc_count_bound_fails_before_computing(monkeypatch):
    from ova360 import ova

    top = ova.MAX_GENFUNC_COUNT
    assert len(genfunc_coefficients("particular", top)) == top

    def no_family(family):
        raise AssertionError("computed past the count bound")

    monkeypatch.setattr(ova, "_coerce_family", no_family)
    with pytest.raises(BoundError, match="exceeds bound"):
        genfunc_coefficients("particular", top + 1)


def test_genfunc_against_sympy_series():
    import sympy

    z = sympy.symbols("z")
    cases = {
        "particular": ((7, 16, 7), (1, -1, -1, 1)),
        "twin": ((11, 2, 4, 2, 10, 2, -1), (1, -1, 0, 0, 0, 0, -1, 1)),
        "full": ((7, 4, 2, 4, 2, 4, 6, 2, -1),
                 (1, -1, 0, 0, 0, 0, 0, 0, -1, 1)),
    }
    for family, (num, den) in cases.items():
        np_ = sum(c * z**i for i, c in enumerate(num))
        dp = sum(c * z**i for i, c in enumerate(den))
        expansion = sympy.series(np_ / dp, z, 0, 25).removeO()
        want = [int(expansion.coeff(z, i)) for i in range(25)]
        got = genfunc_coefficients(family, 25, reduce=False)
        assert got == want, family


def test_sum_digits_examples():
    assert sum_digits_check(367)
    assert sum_digits_check(1129)
    assert sum_digits_check(2)


def test_gcd_condition_examples():
    assert gcd_condition_check(367)
    assert gcd_condition_check(1129)
    assert gcd_condition_check(9161)
    with pytest.raises(DomainError):
        gcd_condition_check(7)  # frequency 0
    with pytest.raises(DomainError):
        gcd_condition_check(368)  # not prime


def test_equivalence_relation_on_residues():
    primes = sieve_primes(10**5).tolist()
    import random

    rng = random.Random(5)
    for _ in range(500):
        p, q = rng.choice(primes), rng.choice(primes)
        same = decompose(p).ova == decompose(q).ova
        assert same == ((p - q) % 360 == 0)


def test_reflection_symmetry():
    c = residue_sets().C
    for z in c:
        assert 360 - z in c


def test_prime_residues_land_in_cstar():
    s = residue_sets()
    for p in sieve_primes(10**5).tolist():
        assert decompose(p).ova in s.Cstar
        if p > 360:
            assert math.gcd(decompose(p).ova, 360) == 1
