"""Mersenne primes classified by residue modulo 360.

2**p - 1 mod 360 takes only six values over prime p: the singular
residues 3 (p=2) and 7 (p=3), and for p > 3 one of {31, 127, 247, 271}
determined by p mod 12. Each non-singular class carries an arithmetic
progression of exponents and an exact K-sequence; this module also
hosts Lucas-Lehmer testing, an exponent scanner, neighbor-compositeness
checks, and the convergent sum of Mersenne-prime reciprocals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

import numpy as np

from . import goldens
from .errors import DomainError, GoldenDataError, NotMersennePrime, check_range
from .ova import MODULUS, residue_sets
from .primality import is_prime, is_prime_big, sieve_primes

MAX_LL_EXPONENT = 10000
# Largest max_p for scan_exponents, which runs Lucas-Lehmer on every
# prime up to it. On a 2-core x86-64 VM `mersenne scan --max 6000`
# takes 12.0-14.0 s and peaks at 30 MB RSS, start-up included; 7000
# took 22.1 s.
MAX_SCAN_EXPONENT = 6000
# Lucas-Lehmer first tries the factors q = 2kp + 1 for k <= p //
# LL_TRIAL_K_DIVISOR, q below about p**2. On scan_exponents(2300), with
# the constant patched in one process and the settings interleaved on a
# 2-core x86-64 VM, this takes the median of two runs from 0.88-1.23 s
# without trial factors to 0.52-0.63 s (k <= p/4 gives the same,
# 0.55-0.62 s; k <= 2p 0.65-0.66 s).
LL_TRIAL_K_DIVISOR = 2
MAX_KSEQ_INDEX = 2000
# singular_class_check's primes per vectorised step: each int32
# temporary is 64 KB, so a step stays in cache; 1 << 14 took 0.83 s of
# square-and-multiply at 1e8 against 0.96 s for 1 << 16
_RESIDUE_CHUNK = 1 << 14
# decimal digits of 2**(12*MAX_KSEQ_INDEX), more than any K up to that index
KSEQ_MAX_DIGITS = math.floor(12 * MAX_KSEQ_INDEX * math.log10(2)) + 1
MAX_SUM_DIGITS = 200
# inverse_sum, inverse_sum_fraction: most terms accepted. On a 2-core
# x86-64 VM the sum at 30 terms takes 0.35 s to build and 0.84 s to
# render as 147k-digit numerator and denominator (`mersenne constant`
# 0.7 s as plain, 1.5 s as JSON); at 33 terms 5.0 s and 18.6 s.
MAX_SUM_TERMS = 30
# decimal digits of 2**488247, 488247 being the sum of the first
# MAX_SUM_TERMS known exponents: the 2**p - 1 are distinct primes, so
# the sum's denominator is their product and its numerator is smaller
SUM_MAX_DIGITS = math.floor(488247 * math.log10(2)) + 1
# mersenne_properties tests M + 6n - 4 for |n| <= FAMILY_SAMPLE_RANGE
FAMILY_SAMPLE_RANGE = 50


class MersenneClass(enum.Enum):
    SINGULAR_3 = "Singular3"
    SINGULAR_7 = "Singular7"
    CLASS_31 = "Class31"
    CLASS_127 = "Class127"
    CLASS_247 = "Class247"
    CLASS_271 = "Class271"

    @property
    def residue(self) -> int:
        return _CLASS_RESIDUE[self]


# class -> (progression offset c with exponent = 12*i - c, K subtrahend t)
# where K_i = (2**(exponent-3) - t) / 45, residue = 8t - 1 and the
# exponent p = -c (mod 12)
_CLASS_SEQ = {
    MersenneClass.CLASS_31: (7, 4),
    MersenneClass.CLASS_127: (5, 16),
    MersenneClass.CLASS_247: (1, 31),
    MersenneClass.CLASS_271: (11, 34),
}

_CLASS_RESIDUE = {
    MersenneClass.SINGULAR_3: 3,
    MersenneClass.SINGULAR_7: 7,
    **{label: 8 * t - 1 for label, (_, t) in _CLASS_SEQ.items()},
}

# p mod 12 -> class, for prime p > 3
_MOD12_CLASS = {-c % 12: label for label, (c, _) in _CLASS_SEQ.items()}


@dataclass(frozen=True)
class MersenneClassification:
    exponent: int
    residue: int
    class_label: MersenneClass
    exponent_mod12: int


@dataclass(frozen=True)
class KSequenceEntry:
    class_label: MersenneClass
    index: int
    exponent: int
    K: int


@dataclass(frozen=True)
class ScanReport:
    max_p: int
    tested: int
    mersenne_exponents: tuple[int, ...]
    skipped_by_class: int


@dataclass(frozen=True)
class SingularReport:
    max_p: int
    holds: bool
    residue3_exponents: tuple[int, ...]
    residue7_exponents: tuple[int, ...]
    residues_observed: tuple[int, ...]


@dataclass(frozen=True)
class MersenneProperties:
    """Congruence and neighbor-compositeness facts about one Mersenne
    prime. Fields are None where the underlying claim does not apply
    (the residue-conditioned neighbors, and the mod-6 statements that
    exclude p=2)."""

    exponent: int
    residue: int
    mod4_is_3: bool
    mod6_is_1: bool | None
    plus2_composite: bool | None
    minus2_composite: bool | None
    plus4_composite: bool | None
    plus_6n_minus_4_composite: bool | None
    not_germain: bool


def _require_prime(p: int) -> None:
    if not is_prime_big(p):
        raise DomainError(f"exponent {p} is not prime")


def mersenne_residue(p: int) -> int:
    """(2**p - 1) mod 360, p prime: the residue of classify_exponent(p)."""
    return classify_exponent(p).residue


def classify_exponent(p: int) -> MersenneClassification:
    """Residue class of 2**p - 1. Classification is of the residue;
    the Mersenne number itself may be composite (e.g. p=11)."""
    _require_prime(p)
    residue = (pow(2, p, 360) - 1) % 360
    if p == 2:
        label = MersenneClass.SINGULAR_3
    elif p == 3:
        label = MersenneClass.SINGULAR_7
    else:
        label = _MOD12_CLASS[p % 12]
    if residue != label.residue:
        raise AssertionError(f"residue {residue} disagrees with {label}")
    return MersenneClassification(p, residue, label, p % 12)


@cache
def criteria_filter() -> frozenset[int]:
    """Survivors of the mechanical criteria over C*.

    Keeps residues z with z+1 divisible by 8 (A) but not by 3 (B) or
    5 (C), excluding {103, 223, 343} (D) and 151 (E); the singular
    residue 3 is kept by fiat. The result is {3,7,31,127,247,271}: C*
    minus every residue charged by criteria_eliminations.
    """
    eliminated = set().union(*criteria_eliminations().values())
    return frozenset(residue_sets().Cstar - eliminated)


def criteria_eliminations() -> dict[str, tuple[int, ...]]:
    """Residues of C* removed by each criterion, keyed A-E.

    A residue is charged to the first criterion that rejects it, in
    the order A (8 | z+1), B (3 | z+1), C (5 | z+1), D (z in
    {103,223,343}), E (z = 151).
    """
    out: dict[str, list[int]] = {k: [] for k in "ABCDE"}
    for z in sorted(residue_sets().Cstar):
        if z == 3:
            continue
        if (z + 1) % 8 != 0:
            out["A"].append(z)
        elif (z + 1) % 3 == 0:
            out["B"].append(z)
        elif (z + 1) % 5 == 0:
            out["C"].append(z)
        elif z in (103, 223, 343):
            out["D"].append(z)
        elif z == 151:
            out["E"].append(z)
    return {k: tuple(v) for k, v in out.items()}


def k_sequence(class_label, indices: Iterable[int]) -> list[KSequenceEntry]:
    """K-sequence entries for a non-singular class.

    Each entry satisfies residue + 360*K = 2**exponent - 1 exactly;
    the identity is re-verified in arbitrary precision before the
    entry is returned. Class271 starts at index 2 (index 1 would mean
    exponent 1 and a negative K).
    """
    label = _coerce_class(class_label)
    if label in (MersenneClass.SINGULAR_3, MersenneClass.SINGULAR_7):
        raise DomainError(f"{label.value} has no K-sequence")
    offset, t = _CLASS_SEQ[label]
    first = 2 if label is MersenneClass.CLASS_271 else 1
    checked = []  # every index, before any entry is built
    for i in indices:
        if i < first:
            raise DomainError(
                f"{label.value} index starts at {first}, got {i}"
                + (" (index 1 gives the degenerate exponent 1)"
                   if label is MersenneClass.CLASS_271 else "")
            )
        check_range("index", i, high=MAX_KSEQ_INDEX)
        checked.append(i)
    out = []
    for i in checked:
        exponent = 12 * i - offset
        num = (1 << (exponent - 3)) - t
        if num % 45 != 0:
            raise AssertionError(f"K not integral at {label.value} index {i}")
        k = num // 45
        if label.residue + 360 * k != (1 << exponent) - 1:
            raise AssertionError(f"identity fails at {label.value} index {i}")
        out.append(KSequenceEntry(label, i, exponent, k))
    return out


def _coerce_class(label) -> MersenneClass:
    if isinstance(label, MersenneClass):
        return label
    key = str(label).lower().removeprefix("class")
    for m in MersenneClass:
        if m.value.lower() == str(label).lower() or str(m.residue) == key:
            return m
    raise DomainError(f"unknown Mersenne class {label!r}")


def _trial_factor(p: int, m: int) -> int | None:
    """A factor q < m of m = 2**p - 1 of the form q = 2kp + 1, k <= p //
    LL_TRIAL_K_DIVISOR, or None. Every prime factor of m has that form
    and is +-1 (mod 8), since 2 = (2**((p+1)/2))**2 is a square mod q."""
    step = 2 * p
    for q in range(step + 1, min(step * (p // LL_TRIAL_K_DIVISOR) + 2, m), step):
        if q & 7 in (1, 7) and pow(2, p, q) == 1:
            return q
    return None


def lucas_lehmer(p: int) -> bool:
    """True iff 2**p - 1 is prime, for odd prime p <= MAX_LL_EXPONENT.

    A trial-factoring prefilter runs first (as GIMPS does,
    https://www.mersenne.org/various/math.php): a divisor 2kp + 1 below
    2**p - 1 with k <= p // LL_TRIAL_K_DIVISOR proves 2**p - 1
    composite. Otherwise the squaring loop decides; it reduces mod
    2**p - 1 by folding the high bits (s & m) + (s >> p), which keeps
    every intermediate below 2m.
    """
    check_range("exponent", p, high=MAX_LL_EXPONENT, bound="Lucas-Lehmer bound")
    if p == 2 or not is_prime(p):
        raise DomainError(f"exponent {p} must be an odd prime")
    m = (1 << p) - 1
    if _trial_factor(p, m):
        return False
    s = 4 % m
    for _ in range(p - 2):
        s = s * s - 2
        s = (s & m) + (s >> p)
        if s >= m:
            s -= m
    return s == 0


def scan_exponents(max_p: int) -> ScanReport:
    """Search exponents <= max_p for Mersenne primes.

    Reads the primes p <= max_p from the sieve: the singular exponents
    2 and 3 are checked directly and every larger p by Lucas-Lehmer, so
    tested = pi(max_p). Every p > 3 lies on one of the four class
    progressions 12i-11, 12i-7, 12i-5, 12i-1, whose members are the
    e >= 5 coprime to 6; skipped_by_class counts the composite members
    up to max_p, discarded without a test.
    """
    check_range("max_p", max_p, 2, MAX_SCAN_EXPONENT, "exponent scan bound")
    primes = sieve_primes(max_p).tolist()
    found = [p for p in primes if
             (is_prime_big((1 << p) - 1) if p <= 3 else lucas_lehmer(p))]
    members = len(range(5, max_p + 1, 6)) + len(range(7, max_p + 1, 6))
    skipped = members - max(len(primes) - 2, 0)
    return ScanReport(max_p, len(primes), tuple(found), skipped)


def singular_class_check(max_p: int) -> SingularReport:
    """Verify residues 3 and 7 occur only at exponents 2 and 3, over
    the primes p <= max_p from the sieve, whose bound,
    MAX_PRIME_LIST_LIMIT, max_p shares: past it, BoundError comes
    before any work.

    2**p mod 360 comes from square-and-multiply on the prime array,
    _RESIDUE_CHUNK primes at a time, not from the period 12 in p that
    this check is there to confirm. At max_p = 1e8 a call takes 1.0-1.35 s
    and peaks at 79-80 MB (VmHWM), most of it the prime array, on a
    2-core x86-64 VM, where one pow per Python int took 6.6-7.3 s and
    298 MB.
    """
    check_range("max_p", max_p, 3)
    primes = sieve_primes(max_p)
    seen = np.zeros(MODULUS, dtype=bool)
    r3, r7 = [], []
    for s in range(0, primes.size, _RESIDUE_CHUNK):
        # p <= 1e8 and every product below 360**2 fit in int32
        ps = primes[s:s + _RESIDUE_CHUNK].astype(np.int32)
        power = np.ones(ps.size, dtype=np.int32)
        square = 2  # 2**(2**k) mod 360
        for k in range(int(ps[-1]).bit_length()):
            power = np.where(ps >> k & 1, power * square % MODULUS, power)
            square = square * square % MODULUS
        r = (power - 1) % MODULUS
        seen[r] = True
        r3 += ps[r == 3].tolist()
        r7 += ps[r == 7].tolist()
    return SingularReport(
        max_p=max_p,
        holds=(r3 == [2] and r7 == [3]),
        residue3_exponents=tuple(r3),
        residue7_exponents=tuple(r7),
        residues_observed=tuple(np.flatnonzero(seen).tolist()),
    )


@cache
def known_exponents() -> tuple[int, ...]:
    """The known Mersenne-prime exponents shipped as golden data."""
    return goldens.load_int_lines("mersenne_exponents.txt")


def _sum_exponents(num_terms: int) -> tuple[int, ...]:
    """The first num_terms known exponents, for 1 <= num_terms <=
    MAX_SUM_TERMS; GoldenDataError if the list is shorter."""
    check_range("num_terms", num_terms, 1, MAX_SUM_TERMS)
    known = known_exponents()
    if num_terms > len(known):
        raise GoldenDataError(f"mersenne_exponents.txt lists {len(known)} "
                              f"exponents, fewer than num_terms {num_terms}")
    return known[:num_terms]


def inverse_sum(num_terms: int, precision_digits: int) -> str:
    """Partial sum of reciprocals of Mersenne primes as a decimal
    string, truncated (not rounded) to precision_digits places.

    Terms come from the shipped known-exponent list; the arithmetic
    is exact rational throughout. Both arguments are checked before
    the sum is built.
    """
    _sum_exponents(num_terms)
    check_range("precision_digits", precision_digits, 1, MAX_SUM_DIGITS)
    total = inverse_sum_fraction(num_terms)
    scaled = (total.numerator * 10**precision_digits) // total.denominator
    digits = str(scaled).rjust(precision_digits, "0")
    return f"0.{digits}"


@cache
def inverse_sum_fraction(num_terms: int) -> Fraction:
    """The exact sum of 1/(2**p - 1) over the first num_terms known
    exponents. Cached, so inverse_sum and then inverse_sum_fraction of
    the same num_terms build the sum once."""
    total = Fraction(0)
    for p in _sum_exponents(num_terms):
        total += Fraction(1, (1 << p) - 1)
    return total


def mersenne_properties(p: int) -> MersenneProperties:
    """Evaluate the congruence and neighbor-compositeness theorems
    for the Mersenne prime 2**p - 1.

    Raises NotMersennePrime when 2**p - 1 is composite. The 6n-4
    family is sampled over |n| <= FAMILY_SAMPLE_RANGE (members equal to
    3 or below 4 are outside the claim and skipped). The mod-6 and 6n-4
    fields are None at p=2, where M=3 is not 1 mod 6.
    """
    _require_prime(p)
    if p == 2:
        m = 3
    else:
        if not lucas_lehmer(p):
            raise NotMersennePrime(f"2**{p}-1 is composite")
        m = (1 << p) - 1
    cls = classify_exponent(p)
    mod6 = None if p == 2 else m % 6 == 1
    plus2 = None if m <= 3 else not is_prime_big(m + 2)
    minus2 = plus4 = None
    if cls.class_label in (MersenneClass.CLASS_127, MersenneClass.CLASS_247):
        minus2 = not is_prime_big(m - 2)
    if cls.class_label in (MersenneClass.CLASS_31, MersenneClass.CLASS_271):
        plus4 = not is_prime_big(m + 4)
    family = None
    if p > 2:
        family = all(
            not is_prime_big(m + 6 * n - 4)
            for n in range(-FAMILY_SAMPLE_RANGE, FAMILY_SAMPLE_RANGE + 1)
            if m + 6 * n - 4 >= 4
        )
    return MersenneProperties(
        exponent=p,
        residue=cls.residue,
        mod4_is_3=m % 4 == 3,
        mod6_is_1=mod6,
        plus2_composite=plus2,
        minus2_composite=minus2,
        plus4_composite=plus4,
        plus_6n_minus_4_composite=family,
        not_germain=not is_prime_big(2 * m + 1),
    )
