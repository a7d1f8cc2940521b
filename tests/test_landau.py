from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import goldens, landau
from ova360.errors import BoundError, DomainError, GoldenDataError, UnknownOva
from ova360.landau import (
    enumerate_k2_plus_1,
    golden_161_rows,
    golden_landau_residues,
    landau_residues,
    link_families,
    link_family_161,
    quad_families,
)
from ova360.primality import is_prime_big


def test_enumerate_examples():
    assert enumerate_k2_plus_1(2) == [2]
    assert enumerate_k2_plus_1(700) == [2, 5, 17, 37, 101, 197, 257,
                                        401, 577, 677]
    got = enumerate_k2_plus_1(1700)
    assert got[-2:] == [1297, 1601]


def test_enumerate_validation():
    with pytest.raises(DomainError):
        enumerate_k2_plus_1(1)


def test_enumerate_bound_fails_before_testing(monkeypatch):
    def no_test(n):
        raise AssertionError("tested past the limit bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    with pytest.raises(BoundError):
        enumerate_k2_plus_1(landau.MAX_LANDAU_LIMIT + 1)


def test_enumerate_members_are_prime_squares_plus_one():
    import math

    for v in enumerate_k2_plus_1(10**5):
        assert is_prime_big(v)
        k = math.isqrt(v - 1)
        assert k * k + 1 == v


def test_residues_small():
    assert landau_residues(10) == {2, 5}
    assert 161 in landau_residues(2000)


def test_residues_match_golden_at_1e5():
    assert landau_residues(10**5) == set(golden_landau_residues())


def _count_tests(monkeypatch, most):
    """Patch landau.is_prime_big to count its calls, failing at once
    past most."""
    calls = []

    def counting(n):
        calls.append(n)
        assert len(calls) <= most, f"{len(calls)} primality tests"
        return is_prime_big(n)

    monkeypatch.setattr(landau, "is_prime_big", counting)
    return calls


def test_k2_plus_1_classes_are_the_classes_that_occur():
    # derived from the congruences alone, and equal to what the primes
    # k^2 + 1 below 1e5 occupy and to the shipped list
    occur = {v % 360 for v in enumerate_k2_plus_1(10**5)}
    assert landau.K2_PLUS_1_CLASSES == occur == set(golden_landau_residues())


def test_residues_match_the_enumeration():
    firsts, seen = [], set()  # each prime that brings a new class
    for v in enumerate_k2_plus_1(10**6):
        if v % 360 not in seen:
            seen.add(v % 360)
            firsts.append(v)
    assert firsts[-1] == 67601 == 260**2 + 1
    limits = [*range(2, 3001), *(v + d for v in firsts for d in (-1, 0, 1)), 10**6]
    for limit in limits:
        if limit >= 2:
            want = {v % 360 for v in enumerate_k2_plus_1(limit)}
            assert landau_residues(limit) == want, limit


def test_residues_stop_once_every_class_has_a_witness(monkeypatch):
    calls = _count_tests(monkeypatch, most=130)  # k = 2, 4, ..., 260
    assert landau_residues(10**12) == landau.K2_PLUS_1_CLASSES
    assert len(calls) == 130
    calls = _count_tests(monkeypatch, most=10**6)
    enumerate_k2_plus_1(10**6)
    assert len(calls) == 499  # one test per even k <= 999


def test_residues_bound_fails_before_testing(monkeypatch):
    _count_tests(monkeypatch, most=0)
    with pytest.raises(BoundError):
        landau_residues(landau.MAX_LANDAU_LIMIT + 1)
    with pytest.raises(DomainError):
        landau_residues(1)


def test_golden_residue_set_shape():
    g = golden_landau_residues()
    assert len(g) == 18
    assert list(g) == sorted(g)
    assert {2, 5, 17, 101, 161, 257} <= set(g)


def test_diff_report():
    d = goldens.diff("landau_residues.txt", landau_residues(2000))
    assert not d.extra_in_computed
    assert 341 in d.missing_from_computed  # first hit 16901 > 2000


def test_golden_loaders_skip_blank_lines_and_reject_malformed_ones(tmp_path,
                                                                   monkeypatch):
    monkeypatch.setenv("OVA360_GOLDEN", str(tmp_path))
    files = {"ints.txt": "1\n\n 2 \n", "bits.txt": "01\n\n10\n",
             "pairs.txt": "1,2\n\n3,4\n", "bad_int.txt": "1\nx\n",
             "bad_bits.txt": "01\n02\n", "ragged.txt": "01\n011\n",
             "bad_pair.txt": "1,2\n3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert goldens.load_int_lines("ints.txt") == (1, 2)
    assert goldens.load_bit_rows("bits.txt") == ((0, 1), (1, 0))
    assert goldens.load_pairs("pairs.txt") == ((1, 2), (3, 4))
    for load, name, msg in (
            (goldens.load_int_lines, "bad_int.txt", "bad line 'x'"),
            (goldens.load_bit_rows, "bad_bits.txt", "bad bit row '02'"),
            (goldens.load_bit_rows, "ragged.txt", "ragged rows"),
            (goldens.load_pairs, "bad_pair.txt", "bad pair '3'"),
            (goldens.load_int_lines, "missing.txt", "cannot read golden file")):
        with pytest.raises(GoldenDataError, match=msg):
            load(name)


def test_families_all_verify_on_load():
    fams = link_families()
    assert len(fams) == 54
    assert {f.ova for f in fams} == set(golden_landau_residues())
    for f in fams:
        f.verify()  # idempotent; load already did this
    # a slip in any coefficient breaks one identity
    f = fams[0]
    slips = [({"C": f.C + 1}, "value != k"),
             ({"a_k": 1, "A": 1, "B": 2 * f.b_k}, "quadratic part not 0 mod 360"),
             ({"ova": f.ova + 2}, "C != ova mod 360"),
             ({"a_n": f.a_n + 1}, "n-form disagrees"),
             ({"gamma0": f.gamma0 + 1}, "gamma0 inconsistent"),
             ({"c_n": (f.C - f.ova) // 360 + 1, "gamma0": -1}, "gamma0 inconsistent")]
    for change, msg in slips:
        with pytest.raises(GoldenDataError, match=msg):
            dataclasses.replace(f, **change).verify()


def test_family_labels_sorted_and_unique():
    fams = link_families()
    keys = [(f.ova, f.label) for f in fams]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(st.integers(min_value=-50, max_value=50))
@settings(max_examples=40, deadline=None)
def test_family_identities(alpha):
    for f in link_families():
        k = f.k(alpha)
        v = f.value(alpha)
        assert v == k * k + 1
        assert v % 360 == f.ova % 360
        assert v == f.ova + 360 * (f.n(alpha) + f.gamma0)


def test_quad_families_prime_base_rows():
    row = quad_families(257, [0])[0]
    assert row.label == "A"
    assert (row.k, row.value, row.is_prime) == (16, 257, True)
    row = quad_families(101, [0])[0]
    assert (row.value, row.frequency, row.is_prime) == (101, 0, True)


def test_quad_families_composite_row():
    rows = [r for r in quad_families(161, [1]) if r.label == "B"]
    assert rows[0].k == 140
    assert rows[0].value == 19601  # 17 * 1153
    assert rows[0].is_prime is False


def test_quad_families_unknown_residue():
    with pytest.raises(UnknownOva):
        quad_families(7, [0])
    with pytest.raises(UnknownOva):
        quad_families(360, [0])


def test_quad_families_alpha_bound_fails_before_testing(monkeypatch):
    from ova360 import landau

    monkeypatch.setattr(landau, "is_prime_big", lambda n: False)
    assert len(quad_families(37, range(landau.MAX_FAMILY_ALPHAS))) == (
        5 * landau.MAX_FAMILY_ALPHAS)

    def no_test(n):
        raise AssertionError("tested past the alpha bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    with pytest.raises(BoundError, match="exceed bound"):
        quad_families(37, range(landau.MAX_FAMILY_ALPHAS + 1))


def test_quad_families_alpha_magnitude_bound_fails_before_testing(monkeypatch):
    from ova360 import landau

    bound = landau.MAX_FAMILY_ALPHA
    tested = []
    monkeypatch.setattr(landau, "is_prime_big", lambda n: tested.append(n))
    assert len(quad_families(37, [-bound, bound])) == 10
    assert len(tested) == 10 and max(tested) < 2**64

    def no_test(n):
        raise AssertionError("tested past the alpha bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    for alphas in ([bound + 1], [0, -bound - 1], range(bound - 5, bound + 5),
                   [10**1000]):
        with pytest.raises(BoundError, match=r"\|alpha\| \d+ exceeds bound"):
            quad_families(37, alphas)


def test_quad_families_skips_negative_n():
    rows = [r for r in quad_families(1, [0]) if r.label == "A"]
    assert rows[0].skipped
    assert rows[0].n == -40
    assert rows[0].frequency is None and rows[0].is_prime is None
    assert "< 0" in rows[0].note


def test_quad_families_constant_family():
    # residues 2 and 5 carry the degenerate k(alpha) = const families
    for ova, k0 in ((2, 1), (5, 2)):
        rows = quad_families(ova, [0, 3, 7])
        assert all(r.value == ova and r.k == k0 and r.is_prime
                   for r in rows)


def test_161_family_flags():
    rows = link_family_161(range(15))
    assert len(rows) == 15
    assert [r.alpha for r in rows] == list(range(15))
    prime_alphas = {r.alpha for r in rows if r.is_prime}
    assert prime_alphas == {0, 2, 4, 9, 13}
    assert rows[0].value == 1601 and rows[0].frequency == 4
    assert rows[2].k == 400 and rows[2].value == 160001


def test_161_rows_match_golden():
    rows = link_family_161(range(15))
    for row, want in zip(rows, golden_161_rows()):
        assert row.alpha == want["alpha"]
        assert row.k == want["k"]
        assert row.n == want["n"]
        assert row.frequency == want["frequency"]
        assert row.value == want["value"]
        assert row.is_prime == bool(want["is_prime"])


def test_161_frequency_offset():
    for r in link_family_161(range(8)):
        assert r.frequency == r.n + 4
        assert r.value == 161 + 360 * r.frequency
