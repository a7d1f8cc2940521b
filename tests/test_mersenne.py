from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import goldens, mersenne, primality
from ova360.errors import BoundError, DomainError, NotMersennePrime
from ova360.mersenne import (
    MersenneClass,
    SingularReport,
    classify_exponent,
    criteria_eliminations,
    criteria_filter,
    inverse_sum,
    inverse_sum_fraction,
    k_sequence,
    known_exponents,
    lucas_lehmer,
    mersenne_properties,
    mersenne_residue,
    scan_exponents,
    singular_class_check,
)
from ova360.primality import MAX_PRIME_LIST_LIMIT, is_prime, sieve_primes


def test_residue_examples():
    assert mersenne_residue(13) == 271
    assert mersenne_residue(17) == 31
    assert mersenne_residue(2) == 3
    assert mersenne_residue(3) == 7


def test_residue_requires_prime_exponent():
    with pytest.raises(DomainError):
        mersenne_residue(9)


def test_residue_matches_modular_power():
    for p in sieve_primes(5000).tolist():
        assert mersenne_residue(p) == (pow(2, p, 360) - 1) % 360, p


def test_residue_table_golden():
    for p, want in goldens.load_pairs("mersenne_residue_classes.txt"):
        assert mersenne_residue(p) == want, p


def test_criteria_filter():
    assert criteria_filter() == {3, 7, 31, 127, 247, 271}


def test_criteria_filter_matches_the_criteria():
    # the criteria applied one by one, as the docstring states them
    want = {3}
    for z in mersenne.residue_sets().Cstar:
        if (z + 1) % 8 or (z + 1) % 3 == 0 or (z + 1) % 5 == 0:
            continue
        if z not in (103, 223, 343, 151):
            want.add(z)
    assert criteria_filter() == want


def test_criteria_eliminations():
    elim = criteria_eliminations()
    assert 23 in elim["B"]  # 24 divisible by 3
    assert 79 in elim["C"]  # 80 divisible by 5
    assert set(elim["D"]) == {103, 223, 343}
    assert elim["E"] == (151,)
    survivors = criteria_filter()
    eliminated = {z for zs in elim.values() for z in zs}
    assert eliminated | survivors == set().union(
        *[set(zs) for zs in elim.values()], survivors
    )
    assert len(eliminated) + len(survivors) == 99


def test_classify_examples():
    assert classify_exponent(5).class_label is MersenneClass.CLASS_31
    assert classify_exponent(19).class_label is MersenneClass.CLASS_127
    c = classify_exponent(11)
    assert c.class_label is MersenneClass.CLASS_247
    assert c.residue == 247  # M_11 = 2047 is composite; class is of residue
    assert classify_exponent(2).class_label is MersenneClass.SINGULAR_3
    assert classify_exponent(3).class_label is MersenneClass.SINGULAR_7
    assert classify_exponent(13).exponent_mod12 == 1


def test_mod12_map_to_1e5():
    want = {1: 271, 5: 31, 7: 127, 11: 247}
    for p in range(5, 10**5, 2):
        if is_prime(p):
            assert (pow(2, p, 360) - 1) % 360 == want[p % 12], p


def test_k_sequence_examples():
    e = k_sequence(MersenneClass.CLASS_31, [2])[0]
    assert (e.exponent, e.K) == (17, 364)
    assert 31 + 360 * 364 == 131071 == 2**17 - 1
    e = k_sequence(MersenneClass.CLASS_127, [1])[0]
    assert (e.exponent, e.K) == (7, 0)
    e = k_sequence(MersenneClass.CLASS_247, [1])[0]
    assert (e.exponent, e.K) == (11, 5)
    assert 247 + 360 * 5 == 2047


def test_k_sequence_class_name_coercion():
    a = k_sequence("Class31", [1, 2, 3])
    b = k_sequence(MersenneClass.CLASS_31, range(1, 4))
    assert a == b
    assert k_sequence("31", [2])[0].K == 364


def test_k_sequence_domain_errors():
    with pytest.raises(DomainError):
        k_sequence(MersenneClass.CLASS_271, [1])  # degenerate exponent 1
    with pytest.raises(DomainError):
        k_sequence(MersenneClass.SINGULAR_3, [1])
    with pytest.raises(DomainError):
        k_sequence(MersenneClass.CLASS_31, [0])
    with pytest.raises(BoundError):
        k_sequence(MersenneClass.CLASS_31, [2001])


@given(st.integers(min_value=2, max_value=120))
@settings(max_examples=60, deadline=None)
def test_k_sequence_identity(i):
    for label in (MersenneClass.CLASS_31, MersenneClass.CLASS_127,
                  MersenneClass.CLASS_247, MersenneClass.CLASS_271):
        e = k_sequence(label, [i])[0]
        assert e.K >= 0
        assert label.residue + 360 * e.K == (1 << e.exponent) - 1


def test_k_sequence_271_start():
    e = k_sequence(MersenneClass.CLASS_271, [2])[0]
    assert (e.exponent, e.K) == (13, 22)


def test_lucas_lehmer_examples():
    assert lucas_lehmer(7)
    assert not lucas_lehmer(11)
    assert lucas_lehmer(2281)


def test_lucas_lehmer_matches_plain_squaring(reference_lucas_lehmer):
    for p in sieve_primes(1300).tolist()[1:]:
        assert lucas_lehmer(p) == reference_lucas_lehmer(p), p


def test_lucas_lehmer_known_exponents_to_4423():
    # includes 3, 5 and 7, where 2p + 1 or 6p + 1 is M_p itself
    exps = [p for p in known_exponents() if 2 < p <= 4423]
    assert exps[:3] == [3, 5, 7] and exps[-1] == 4423
    assert all(lucas_lehmer(p) for p in exps)


def test_trial_factor_is_a_proper_divisor():
    found = []
    for p in sieve_primes(1300).tolist()[1:]:
        m = (1 << p) - 1
        q = mersenne._trial_factor(p, m)
        if q is not None:
            assert 1 < q < m and m % q == 0 and (q - 1) % (2 * p) == 0, p
            found.append(p)
    assert found[:3] == [11, 23, 29]  # 23 | M_11, 47 | M_23, 233 | M_29


def test_lucas_lehmer_validation():
    with pytest.raises(DomainError):
        lucas_lehmer(2)
    with pytest.raises(DomainError):
        lucas_lehmer(9)
    with pytest.raises(BoundError):
        lucas_lehmer(10007)


def test_scan_exponents_small():
    r = scan_exponents(130)
    assert r.mersenne_exponents == (2, 3, 5, 7, 13, 17, 19, 31, 61, 89,
                                    107, 127)
    assert r.skipped_by_class > 0
    r = scan_exponents(4)
    assert r.mersenne_exponents == (2, 3)


def test_scan_exponents_counts():
    r = scan_exponents(130)
    # tested = singulars {2,3} plus every prime 3 < p <= 130
    odd_primes = [p for p in range(5, 131) if is_prime(p)]
    assert r.tested == 2 + len(odd_primes)
    # skipped = composite members of the four progressions in (3, 130]
    comps = [e for e in range(5, 131, 2) if e % 12 in (1, 5, 7, 11)
             and not is_prime(e)]
    assert r.skipped_by_class == len(comps)


def test_scan_exponents_bound():
    with pytest.raises(BoundError):
        scan_exponents(mersenne.MAX_SCAN_EXPONENT + 1)
    with pytest.raises(DomainError, match=">= 2"):
        scan_exponents(1)


def test_scan_and_singular_check_match_sympy_at_every_max_p(reference_lucas_lehmer):
    # below 5 the four progressions have no member; 5 and 7 are the first
    primes, found, residues, composite_members = [], [], [], 0
    for max_p in range(2, 401):
        if sympy.isprime(max_p):
            primes.append(max_p)
            if max_p == 2 or reference_lucas_lehmer(max_p):
                found.append(max_p)
            residues.append((pow(2, max_p, 360) - 1) % 360)
        elif max_p >= 5 and math.gcd(max_p, 6) == 1:
            composite_members += 1
        r = scan_exponents(max_p)
        assert (r.max_p, r.tested, r.mersenne_exponents, r.skipped_by_class) == (
            max_p, len(primes), tuple(found), composite_members)
        if max_p >= 3:
            s = singular_class_check(max_p)
            r3 = tuple(p for p, z in zip(primes, residues) if z == 3)
            r7 = tuple(p for p, z in zip(primes, residues) if z == 7)
            assert s == SingularReport(max_p, r3 == (2,) and r7 == (3,), r3, r7,
                                       tuple(sorted(set(residues)))), max_p


def loop_singular_report(max_p: int) -> SingularReport:
    """singular_class_check by one pow(2, p, 360) per prime."""
    residues = {p: (pow(2, p, 360) - 1) % 360
                for p in sieve_primes(max_p).tolist()}
    r3 = tuple(p for p, z in residues.items() if z == 3)
    r7 = tuple(p for p, z in residues.items() if z == 7)
    return SingularReport(max_p, r3 == (2,) and r7 == (3,), r3, r7,
                          tuple(sorted(set(residues.values()))))


def test_singular_class_check_matches_pow_loop(monkeypatch):
    # 78498 primes to 1e6: four whole chunks and a short one
    assert singular_class_check(10**6) == loop_singular_report(10**6)
    # chunks of 7 primes, ending on and between the chunk edges
    monkeypatch.setattr(mersenne, "_RESIDUE_CHUNK", 7)
    for max_p in (3, 17, 19, 23, 1000):
        assert singular_class_check(max_p) == loop_singular_report(max_p), max_p


def test_singular_class_check_bound_fails_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved past the bound")

    monkeypatch.setattr(primality, "_sieve_segments", no_sieve)
    with pytest.raises(BoundError, match=str(MAX_PRIME_LIST_LIMIT)):
        singular_class_check(MAX_PRIME_LIST_LIMIT + 1)


def test_singular_class_check():
    r = singular_class_check(10**4)
    assert r.holds
    assert r.residue3_exponents == (2,)
    assert r.residue7_exponents == (3,)
    assert set(r.residues_observed) == {3, 7, 31, 127, 247, 271}
    assert singular_class_check(3).holds
    with pytest.raises(DomainError, match=">= 3"):
        singular_class_check(2)


def test_period_12_law():
    for p in range(3, 10**4, 2):
        assert pow(2, p, 360) == pow(2, p + 12, 360), p


def test_known_exponents_data():
    known = known_exponents()
    assert len(known) == 51
    assert known[0] == 2
    assert list(known) == sorted(known)
    assert known[11] == 127  # 12th term closes the 57-digit constant


def test_inverse_sum_examples():
    assert inverse_sum(2, 10) == "0.4761904761"
    assert inverse_sum_fraction(2) == Fraction(10, 21)
    assert inverse_sum(1, 6) == "0.333333"


def test_inverse_sum_monotone():
    prev = Fraction(0)
    for n in range(1, 30):
        cur = inverse_sum_fraction(n)
        assert cur > prev
        prev = cur


def test_inverse_sum_difference_is_reciprocal():
    known = known_exponents()
    for n in range(1, 15):
        diff = inverse_sum_fraction(n + 1) - inverse_sum_fraction(n)
        assert diff == Fraction(1, (1 << known[n]) - 1)


def test_inverse_sum_bounds():
    with pytest.raises(BoundError):
        inverse_sum(0, 10)
    with pytest.raises(BoundError):
        inverse_sum(52, 10)
    with pytest.raises(BoundError):
        inverse_sum(2, 201)
    past = mersenne.MAX_SUM_TERMS + 1
    with pytest.raises(BoundError, match=f"num_terms {past} exceeds bound"):
        inverse_sum(past, 10)
    with pytest.raises(BoundError, match=f"num_terms {past} exceeds bound"):
        inverse_sum_fraction(past)


def test_properties_p5():
    r = mersenne_properties(5)
    assert r.mod4_is_3 and r.mod6_is_1
    assert r.plus2_composite  # 33 = 3*11
    assert r.plus4_composite  # 35 = 5*7; class 31
    assert r.minus2_composite is None
    assert r.plus_6n_minus_4_composite
    assert r.not_germain


def test_properties_p7():
    r = mersenne_properties(7)
    assert r.minus2_composite  # 125 = 5^3; class 127
    assert r.plus4_composite is None
    assert r.not_germain


def test_properties_p13():
    r = mersenne_properties(13)
    assert r.mod6_is_1  # 8191 = 6*1365 + 1
    assert r.plus2_composite  # 8193 = 3*2731


def test_properties_p2_edge():
    # M=3: the mod-6 and 6n-4 claims do not apply, and 3 is itself a
    # Germain prime (2*3+1=7), a counterexample to the blanket claim
    r = mersenne_properties(2)
    assert r.mod4_is_3
    assert r.mod6_is_1 is None
    assert r.plus2_composite is None
    assert r.plus_6n_minus_4_composite is None
    assert r.not_germain is False


def test_properties_rejects_composite_mersenne():
    with pytest.raises(NotMersennePrime):
        mersenne_properties(11)


def test_filter_equals_scan_residues():
    r = scan_exponents(2300)
    observed = {mersenne_residue(p) for p in r.mersenne_exponents}
    assert criteria_filter() == observed | {3, 7}
