"""Acceptance gate: one test per shipped claim, at full stated scale.

Each test prints as a single pass/fail line under pytest -v. Timing
guards use the stated budgets; they are generous on purpose and exist
to catch algorithmic regressions (a quadratic slip), not scheduler
noise.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from ova360 import goldbach, goldens, landau, matrix, mersenne, ova
from ova360.primality import sieve_primes

MERSENNE_CONSTANT_57 = (
    "0.516454178940788565330487342971522858815968553415419701441"
)


def test_criterion_01_residue_sets_exact():
    t0 = time.perf_counter()
    sets = ova.residue_sets()
    assert len(sets.A) == 72
    assert len(sets.B) == 27
    assert len(sets.Cstar) == 99
    assert len(sets.C) == 96
    assert sets.A == set(goldens.load_int_lines("set_a.txt"))
    assert sets.B == set(goldens.load_int_lines("set_b.txt"))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_every_prime_residue_in_cstar():
    t0 = time.perf_counter()
    counts = matrix.residue_counts(10**8)
    cstar = ova.residue_sets().Cstar
    outside = [r for r, c in enumerate(counts) if c and r not in cstar]
    assert outside == []
    assert sum(counts) == 5761455  # pi(10^8)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_goldbach_scan_desk_scale():
    t0 = time.perf_counter()
    report = goldbach.scan(10**7)
    assert report.failures == ()
    assert report.checked == 10**7 // 2 - 2
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_mersenne_residue_law():
    table = goldens.load_pairs("mersenne_residue_classes.txt")[:25]
    assert table[0] == (2, 3) and table[-1] == (21701, 31)
    for p, want in table:
        assert mersenne.mersenne_residue(p) == want, p
    t0 = time.perf_counter()
    want_map = {1: 271, 5: 31, 7: 127, 11: 247}
    for p in sieve_primes(10**5).tolist():
        if p > 3:
            assert (pow(2, p, 360) - 1) % 360 == want_map[p % 12]
    assert time.perf_counter() - t0 < 5.0


def test_criterion_05_criteria_filter():
    assert mersenne.criteria_filter() == {3, 7, 31, 127, 247, 271}


def test_criterion_06_k_sequence_identities():
    for label in (mersenne.MersenneClass.CLASS_31,
                  mersenne.MersenneClass.CLASS_127,
                  mersenne.MersenneClass.CLASS_247,
                  mersenne.MersenneClass.CLASS_271):
        first = 2 if label is mersenne.MersenneClass.CLASS_271 else 1
        entries = mersenne.k_sequence(label, range(first, first + 10))
        assert len(entries) == 10
        for e in entries:
            assert isinstance(e.K, int) and e.K >= 0
            assert label.residue + 360 * e.K == (1 << e.exponent) - 1


def test_criterion_07_lucas_lehmer_scan():
    t0 = time.perf_counter()
    r = mersenne.scan_exponents(2300)
    assert set(r.mersenne_exponents) == {
        2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607,
        1279, 2203, 2281,
    }
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_mersenne_constant_digits():
    t0 = time.perf_counter()
    assert mersenne.inverse_sum(12, 57) == MERSENNE_CONSTANT_57
    assert time.perf_counter() - t0 < 1.0


def test_criterion_09_matrices_and_densities():
    assert matrix.build_matrix(7, 10, 1).bits == goldens.load_bit_rows(
        "matrix_7.txt")
    assert matrix.build_matrix(353, 10, 1).bits == goldens.load_bit_rows(
        "matrix_353.txt")
    assert matrix.density(7, 100) == Fraction(41, 100)
    assert matrix.density(353, 100) == Fraction(39, 100)


def test_criterion_10_landau_family_161():
    rows = landau.link_family_161(range(15))
    assert {r.alpha for r in rows if r.is_prime} == {0, 2, 4, 9, 13}
    golden = landau.golden_161_rows()
    assert len(golden) == 15
    for row, want in zip(rows, golden):
        assert (row.alpha, row.k, row.value) == (
            want["alpha"], want["k"], want["value"])
        assert row.is_prime == bool(want["is_prime"])


def test_criterion_11_property_suites():
    sets = ova.residue_sets()
    c = sorted(sets.C)

    # inverse involution over all 96 residues
    for z in c:
        assert ova.ova_inverse(ova.ova_inverse(z)) == z

    # closure over all 96^2 pairs, budget < 1 s
    t0 = time.perf_counter()
    for a in c:
        for b in c:
            assert ova.closure_check(a, b, 3)
    assert time.perf_counter() - t0 < 1.0

    # digit theorems over all primes <= 10^6
    primes = sieve_primes(10**6)
    res = primes % 360
    assert np.all(primes % 10 == res % 10)
    mult5 = primes[(primes // 360) % 5 == 0]
    assert np.all(mult5 % 100 == (mult5 % 360) % 100)
    mult25 = primes[(primes // 360) % 25 == 0]
    assert np.all(mult25 % 1000 == (mult25 % 360) % 1000)

    # twin-frequency theorem over twins <= 10^7 (lower residue != 359)
    vals = sieve_primes(10**7)
    lo = vals[:-1][(vals[1:] - vals[:-1]) == 2]
    lo = lo[(lo > 5) & (lo % 360 != 359)]
    assert lo.size > 50000
    assert np.all(lo // 360 == (lo + 2) // 360)

    # period-12 law for exponents <= 10^4
    for e in range(3, 10**4 + 1):
        assert pow(2, e, 360) == pow(2, e + 12, 360)

    # class counts + singletons recover pi(x) at x = 10^6
    counts = matrix.residue_counts(10**6)
    assert sum(counts[r] for r in sets.C) + 3 == 78498


def test_criterion_12_dirichlet_equidistribution():
    x = 10**8
    counts = matrix.residue_counts(x)
    predicted = (x / math.log(x)) / 96
    ratios = [counts[r] / predicted for r in sorted(ova.residue_sets().C)]
    assert len(ratios) == 96
    assert all(0.85 < r < 1.15 for r in ratios)
    mean = sum(ratios) / len(ratios)
    assert 0.95 < mean < 1.10
