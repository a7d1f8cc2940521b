"""Primes of the form k**2 + 1 and their residue structure mod 360.

Such primes occupy only 18 residue classes. Each class carries link
families: an affine k(alpha) = a_k*alpha + b_k whose squares-plus-one
trace a quadratic value(alpha) = A*alpha**2 + B*alpha + C staying in
the class. The family table ships as golden data and every row is
re-verified algebraically at load time, so a transcription slip cannot
pass silently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from . import goldens
from .errors import BoundError, DomainError, GoldenDataError, UnknownOva
from .ova import MODULUS
from .primality import is_prime_big

# Largest limit accepted by enumerate_k2_plus_1; see there for the cost.
MAX_LANDAU_LIMIT = 10**12
# Most alpha values, and largest |alpha|, accepted by quad_families;
# see there for the cost.
MAX_FAMILY_ALPHAS = 10**4
MAX_FAMILY_ALPHA = 10**7


@dataclass(frozen=True)
class LinkFamily:
    """One affine family k(alpha) within a fixed residue class.

    gamma0 is the rotation offset of the base value: value(alpha) =
    ova + 360*(n(alpha) + gamma0), so frequency(alpha) = n(alpha) +
    gamma0 whenever n(alpha) >= 0.
    """

    ova: int
    label: str
    a_k: int
    b_k: int
    a_n: int
    b_n: int
    c_n: int
    A: int
    B: int
    C: int
    gamma0: int

    def k(self, alpha: int) -> int:
        return self.a_k * alpha + self.b_k

    def n(self, alpha: int) -> int:
        return self.a_n * alpha * alpha + self.b_n * alpha + self.c_n

    def value(self, alpha: int) -> int:
        return self.A * alpha * alpha + self.B * alpha + self.C

    def verify(self) -> None:
        """Exact identities: value = k**2 + 1 as polynomials, the
        360-divisibility of the quadratic parts, and the n-form's
        consistency with the value form."""
        if self.A != self.a_k**2 or self.B != 2 * self.a_k * self.b_k \
                or self.C != self.b_k**2 + 1:
            raise GoldenDataError(f"{self.ova}/{self.label}: value != k^2+1")
        if self.A % MODULUS or self.B % MODULUS:
            raise GoldenDataError(
                f"{self.ova}/{self.label}: quadratic part not 0 mod 360"
            )
        if (self.C - self.ova) % MODULUS:
            raise GoldenDataError(
                f"{self.ova}/{self.label}: C != ova mod 360"
            )
        if self.a_n * MODULUS != self.A or self.b_n * MODULUS != self.B:
            raise GoldenDataError(
                f"{self.ova}/{self.label}: n-form disagrees with value form"
            )
        if self.gamma0 < 0 or (self.C - self.ova) // MODULUS - self.c_n != self.gamma0:
            raise GoldenDataError(
                f"{self.ova}/{self.label}: gamma0 inconsistent"
            )


@dataclass(frozen=True)
class FamilyRow:
    ova: int
    label: str
    alpha: int
    k: int
    n: int
    frequency: int | None
    value: int
    is_prime: bool | None
    skipped: bool
    note: str | None


@cache
def link_families() -> tuple[LinkFamily, ...]:
    """All shipped families, verified. Grouped by ova, label order."""
    rows = goldens.load_csv_rows("link_families.csv")
    fams = []
    for r in rows:
        ova, c = int(r["ova"]), int(r["C"])
        fam = LinkFamily(
            ova=ova, label=r["label"],
            a_k=int(r["a_k"]), b_k=int(r["b_k"]),
            a_n=int(r["a_n"]), b_n=int(r["b_n"]), c_n=int(r["c_n"]),
            A=int(r["A"]), B=int(r["B"]), C=c,
            gamma0=(c - ova) // MODULUS - int(r["c_n"]),
        )
        fam.verify()
        fams.append(fam)
    fams.sort(key=lambda f: (f.ova, f.label))
    return tuple(fams)


@cache
def golden_landau_residues() -> tuple[int, ...]:
    return goldens.load_int_lines("landau_residues.txt")


# The residues a prime k**2 + 1 can take. Beyond 5 such a prime is odd,
# so k is even, it is coprime to 30, and k**2 + 1 mod 360 depends only
# on k mod 180; k = 1 and 2 add 2 and 5. These are 18 classes.
K2_PLUS_1_CLASSES = frozenset(
    (k * k + 1) % MODULUS for k in range(0, MODULUS // 2, 2)
    if math.gcd(k * k + 1, 30) == 1
) | {2, 5}


def _k2_plus_1_primes(limit: int) -> Iterator[int]:
    """Yield the primes k**2 + 1 <= limit, ascending: 2, then one
    Miller-Rabin call per even k <= sqrt(limit - 1), made as the
    primes are consumed."""
    if limit < 2:
        raise DomainError(f"limit must be >= 2, got {limit}")
    if limit > MAX_LANDAU_LIMIT:
        raise BoundError(f"limit {limit} exceeds bound {MAX_LANDAU_LIMIT}")
    yield 2
    # only even k can give an odd prime beyond k=1
    for k in range(2, math.isqrt(limit - 1) + 1, 2):
        v = k * k + 1
        if is_prime_big(v):
            yield v


def enumerate_k2_plus_1(limit: int) -> list[int]:
    """Ascending primes of the form k**2 + 1 up to limit.

    One Miller-Rabin call per even k <= sqrt(limit - 1): at
    MAX_LANDAU_LIMIT = 1e12 a call takes 3.0-4.3 s and 30 MB peak RSS
    on a 2-core x86-64 VM.
    """
    return list(_k2_plus_1_primes(limit))


def landau_residues(limit: int) -> frozenset[int]:
    """Distinct residues of primes k**2 + 1 <= limit.

    The answer lies in K2_PLUS_1_CLASSES, so the walk over even k stops
    once every one of those classes has a witness: it cannot grow after
    that, and it is the same for every larger limit. The last class,
    281, is reached at k = 260 (67601), so no call makes more than 130
    Miller-Rabin calls. The limit is checked before any test.
    """
    found: set[int] = set()
    for v in _k2_plus_1_primes(limit):
        found.add(v % MODULUS)
        if found >= K2_PLUS_1_CLASSES:
            break
    return frozenset(found)


def quad_families(ova: int, alphas) -> list[FamilyRow]:
    """Evaluate every family registered under ova at each alpha.

    Rows with n(alpha) < 0 are emitted with skipped=True and a note
    instead of a primality verdict; negative alpha is otherwise fine.
    alphas is a sized collection, such as a range. Each row is one
    primality test: on a 2-core x86-64 VM, start-up excluded, `landau
    family --ova 37` (five families, the most of any residue) takes
    0.66-0.91 s as plain and 1.75-2.43 s as JSON over MAX_FAMILY_ALPHAS
    = 1e4 alphas, peaking at 52 and 56 MB, and 8.8-10.1 s and 22-24 s
    over 1e5. A test's cost grows with its value's digits: one alpha of
    1e1000 takes 0.8-1.0 s. Up to MAX_FAMILY_ALPHA = 1e7 every family
    value is below 2**64, inside Miller-Rabin's exact fixed bases, and
    1e4 alphas just below 1e7 take 1.34-1.58 s as plain and 2.39-3.73 s
    as JSON. More alphas or a larger |alpha| raise BoundError before any
    test. Each value is k(alpha)**2 + 1 and ova mod 360 by LinkFamily.verify.
    """
    fams = [f for f in link_families() if f.ova == ova]
    if not fams:
        raise UnknownOva(f"no link family for residue {ova}")
    if len(alphas) > MAX_FAMILY_ALPHAS:
        raise BoundError(
            f"{len(alphas)} alpha values exceed bound {MAX_FAMILY_ALPHAS}")
    largest = max(map(abs, alphas), default=0)
    if largest > MAX_FAMILY_ALPHA:
        raise BoundError(f"|alpha| {largest} exceeds bound {MAX_FAMILY_ALPHA}")
    out = []
    for fam in fams:
        for alpha in alphas:
            k = fam.k(alpha)
            n = fam.n(alpha)
            v = fam.value(alpha)
            if n < 0:
                out.append(FamilyRow(
                    ova, fam.label, alpha, k, n, None, v, None,
                    skipped=True, note=f"n({alpha}) = {n} < 0",
                ))
                continue
            out.append(FamilyRow(
                ova, fam.label, alpha, k, n, n + fam.gamma0, v,
                is_prime_big(v), skipped=False, note=None,
            ))
    return out


def link_family_161(alphas) -> list[FamilyRow]:
    """The residue-161 A-family table: k = 180*alpha + 40, base value
    1601, frequency = n(alpha) + 4."""
    rows = quad_families(161, alphas)
    return [r for r in rows if r.label == "A"]


@cache
def golden_161_rows() -> tuple[dict[str, int], ...]:
    out = []
    for r in goldens.load_csv_rows("link_161_rows.csv"):
        out.append({k: int(v) for k, v in r.items()})
    return tuple(out)
