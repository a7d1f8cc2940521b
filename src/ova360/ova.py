"""Residue arithmetic modulo 360.

Every natural not divisible by 360 splits as value = ova + 360*frequency
with 0 < ova < 360. Primes land in a 99-element residue set C*; its 96
totative members C form a group under multiplication mod 360. This
module computes the decomposition, the residue sets, inverses, twin and
Sophie Germain residue patterns, and the generating functions whose
Taylor coefficients enumerate the residue lines.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, check_range
from .primality import _check_sieve_limit, is_prime_big, sieve_primes

MODULUS = 360
# Most coefficients genfunc_coefficients computes; see there for the cost.
MAX_GENFUNC_COUNT = 10**6


@dataclass(frozen=True)
class OvaDecomposition:
    value: int
    ova: int
    frequency: int


@dataclass(frozen=True)
class ResidueSets:
    A: frozenset[int]
    B: frozenset[int]
    Cstar: frozenset[int]
    C: frozenset[int]


class ResidueClass(enum.Enum):
    IN_A = "InA"
    IN_B = "InB"
    NOT_A_RESIDUE = "NotAResidue"


@dataclass(frozen=True)
class DigitCheck:
    """Trailing-digit agreement between a prime and its residue.

    The last digit always agrees. The last two digits agree whenever
    the frequency is a multiple of 5, the last three whenever it is a
    multiple of 25; inapplicable checks carry ok=None.
    """

    value: int
    last1_ok: bool
    last2_applicable: bool
    last2_ok: bool | None
    last3_applicable: bool
    last3_ok: bool | None


class GenFuncFamily(enum.Enum):
    PARTICULAR = "particular"
    TWIN = "twin"
    FULL = "full"


# numerator, denominator of each family's rational generating function
_GENFUNC = {
    GenFuncFamily.PARTICULAR: ((7, 16, 7), (1, -1, -1, 1)),
    GenFuncFamily.TWIN: ((11, 2, 4, 2, 10, 2, -1), (1, -1, 0, 0, 0, 0, -1, 1)),
    GenFuncFamily.FULL: ((7, 4, 2, 4, 2, 4, 6, 2, -1),
                         (1, -1, 0, 0, 0, 0, 0, 0, -1, 1)),
}


def decompose(value: int) -> OvaDecomposition:
    """Split value into ova = value mod 360 and frequency = value // 360.

    Multiples of 360 are rejected: no prime is one, and residue 0 is
    outside the convention used everywhere else in the package.
    """
    check_range("value", value, 1)
    if value % MODULUS == 0:
        raise DomainError(f"value {value} is a multiple of {MODULUS}")
    return OvaDecomposition(value, value % MODULUS, value // MODULUS)


@cache
def residue_sets() -> ResidueSets:
    """The four residue sets, computed from first principles.

    A holds the 72 primes below 360, B the 27 non-prime residues that
    primes above 360 can take (totatives plus 1), C* their union, and
    C = C* minus the singleton residues 2, 3, 5.
    """
    a = frozenset(sieve_primes(MODULUS).tolist())
    cstar = frozenset(
        r for r in range(1, MODULUS) if math.gcd(r, MODULUS) == 1
    ) | {2, 3, 5}
    b = frozenset(cstar - a)
    c = frozenset(cstar - {2, 3, 5})
    return ResidueSets(A=a, B=b, Cstar=frozenset(cstar), C=c)


def classify_residue(ova: int) -> ResidueClass:
    if not 0 < ova < MODULUS:
        raise DomainError(f"residue must lie in (0,{MODULUS}), got {ova}")
    sets = residue_sets()
    if ova in sets.A:
        return ResidueClass.IN_A
    if ova in sets.B:
        return ResidueClass.IN_B
    return ResidueClass.NOT_A_RESIDUE


def digit_check(p: int) -> DigitCheck:
    """Check the trailing-digit theorems for a prime p."""
    if not is_prime_big(p):
        raise DomainError(f"{p} is not prime")
    d = decompose(p)
    last1 = p % 10 == d.ova % 10
    app2 = d.frequency % 5 == 0
    app3 = d.frequency % 25 == 0
    return DigitCheck(
        value=p,
        last1_ok=last1,
        last2_applicable=app2,
        last2_ok=(p % 100 == d.ova % 100) if app2 else None,
        last3_applicable=app3,
        last3_ok=(p % 1000 == d.ova % 1000) if app3 else None,
    )


def ova_inverse(ova: int) -> int:
    """Multiplicative inverse of ova modulo 360, for ova in C.

    Computed as ova**95 mod 360 (95 = phi(360)-1) and cross-checked
    against the extended-gcd inverse.
    """
    if not 0 < ova < MODULUS or math.gcd(ova, MODULUS) != 1:
        raise DomainError(f"{ova} has no inverse modulo {MODULUS}")
    by_power = pow(ova, 95, MODULUS)
    by_gcd = pow(ova, -1, MODULUS)
    if by_power != by_gcd:
        raise AssertionError(
            f"inverse mismatch for {ova}: {by_power} vs {by_gcd}"
        )
    return by_power


def closure_check(ova1: int, ova2: int, maxpow: int) -> bool:
    """True iff 360-ova1, ova1*ova2 mod 360, and every power
    ova1**n mod 360 for n <= maxpow all lie in C. The powers of a unit
    repeat with a period dividing lambda(360) = 12, so those to
    min(maxpow, 12) are all of them, whatever maxpow."""
    c = residue_sets().C
    if ova1 not in c or ova2 not in c:
        raise DomainError(f"({ova1}, {ova2}) not both in C")
    if (MODULUS - ova1) not in c:
        return False
    if (ova1 * ova2) % MODULUS not in c:
        return False
    x = 1
    for _ in range(min(maxpow, 12)):
        x = (x * ova1) % MODULUS
        if x not in c:
            return False
    return True


def twin_residue_pairs() -> tuple[tuple[int, int], ...]:
    """All pairs (a, a+2) with both members in C, ascending.

    Pairs do not wrap past 360, and the singleton residues 2, 3, 5
    never participate; the first pair is (11, 13).
    """
    c = residue_sets().C
    return tuple((a, a + 2) for a in sorted(c) if a + 2 in c)


# The residues a safe prime 2q+1 can take. For q > 5 both q and 2q+1
# are coprime to 30, and 2q+1 mod 360 depends only on q mod 180; q = 2,
# 3 and 5 add 5, 7 and 11. These are 21 classes.
SAFE_PRIME_CLASSES = frozenset(
    (2 * q + 1) % MODULUS for q in range(MODULUS // 2)
    if math.gcd(q * (2 * q + 1), 30) == 1
) | {5, 7, 11}
# The safe primes up to this limit give each of the 21 classes a
# witness: the last, 323, at 3203.
_SAFE_PREFIX = 4096


def germain_residues(limit: int) -> frozenset[int]:
    """Residues of safe primes 2q+1 <= limit over Germain primes q.

    Read from the primes ps = sieve_primes(min(limit, 4096)): the safe
    primes are the members of ps that are 2q+1 for some q in ps, q = 2
    (which gives 5) included.

    The answer lies in SAFE_PRIME_CLASSES, and every one of those
    classes has a witness by 3203 (q = 1601 gives the last, 323), so
    from there on it is the same for every limit; above 4096 a missing
    class raises AssertionError. limit past MAX_STREAM_LIMIT raises
    BoundError before anything is sieved.
    """
    check_range("limit", limit, 7)
    _check_sieve_limit(limit)
    ps = sieve_primes(min(limit, _SAFE_PREFIX))
    # both ascending, so assume_unique: that skips np.unique, whose
    # first call imports numpy.ma (14-23 ms)
    safe = np.intersect1d(2 * ps + 1, ps, assume_unique=True)
    out = frozenset((safe % MODULUS).tolist())
    if limit > _SAFE_PREFIX and not out >= SAFE_PRIME_CLASSES:
        raise AssertionError(
            f"safe primes to {_SAFE_PREFIX} miss classes "
            f"{sorted(SAFE_PRIME_CLASSES - out)}"
        )
    return out


def _coerce_family(family) -> GenFuncFamily:
    if isinstance(family, GenFuncFamily):
        return family
    aliases = {
        "particular": GenFuncFamily.PARTICULAR,
        "particularlines": GenFuncFamily.PARTICULAR,
        "twin": GenFuncFamily.TWIN,
        "twinlines": GenFuncFamily.TWIN,
        "full": GenFuncFamily.FULL,
    }
    key = str(family).lower()
    if key not in aliases:
        raise DomainError(f"unknown generating-function family {family!r}")
    return aliases[key]


def genfunc_coefficients(family, count: int, reduce: bool = True) -> list[int]:
    """First `count` Taylor coefficients of the family's generating
    function, via the exact linear recurrence from the denominator.

    With reduce=True (default) each coefficient is reduced mod 360;
    the raw coefficients grow by 360 per period and enumerate residue
    lines directly. The recurrence runs in Python; reduced, it keeps
    only the raw coefficients it reads next. On a 2-core x86-64 VM
    `genfunc --count` takes 0.8-1.1 s and peaks at 54 MB, start-up
    included, in every format at MAX_GENFUNC_COUNT = 1e6. A count past
    it raises BoundError before any coefficient is computed.
    """
    check_range("count", count, 1, MAX_GENFUNC_COUNT)
    num, den = _GENFUNC[_coerce_family(family)]
    d = len(den) - 1
    terms = [(i, -c) for i, c in enumerate(den) if i and c]
    # the raw coefficients, newest last, after d zeros that stand for
    # those before the first; reduced, only the last d, which is all
    # the recurrence reads
    raw = collections.deque([0] * d, maxlen=d if reduce else None)
    out: list[int] = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for i, c in terms:
            acc += c * raw[-i]
        raw.append(acc)
        if reduce:
            out.append(acc % MODULUS)
    return out if reduce else list(raw)[d:]


def particular_closed_form(n: int) -> int:
    """Closed form (30n + (-1)**n - 15)/2 mod 360 for the particular
    lines; matches genfunc_coefficients at index n-1."""
    return ((30 * n + (-1) ** n - 15) // 2) % MODULUS


def sum_digits_check(p: int) -> bool:
    """True iff digit-sum(p) matches the residue mod 9 and mod 3."""
    if not is_prime_big(p):
        raise DomainError(f"{p} is not prime")
    s = sum(int(ch) for ch in str(p))
    ova = decompose(p).ova
    return (s - ova) % 9 == 0 and (s - ova) % 3 == 0


def gcd_condition_check(p: int) -> bool:
    """True iff gcd(ova, frequency) = 1 (equivalently the lcm is the
    product). Requires a prime with frequency >= 1."""
    if not is_prime_big(p):
        raise DomainError(f"{p} is not prime")
    d = decompose(p)
    if d.frequency < 1:
        raise DomainError(f"{p} has frequency 0; condition needs >= 1")
    g = math.gcd(d.ova, d.frequency)
    return g == 1 and math.lcm(d.ova, d.frequency) == d.ova * d.frequency
