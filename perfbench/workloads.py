"""The benchmark's workloads: operations, seeded inputs and output checks.

Each operation runs in its own child interpreter (see child.py). A
check receives the operation's exit code, stdout and witness-file bytes
and returns a list of problems; an empty list means the output is
correct. Fixed-argument operations are compared byte for byte with the
digests in expected.json, recorded from the seed commit; seeded ones are
checked against independent oracles (sympy and known values).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
FILE_ARG = "{file}"  # replaced by a per-run path for ops that write a file

MODULUS = 360
TOTATIVES = tuple(r for r in range(1, MODULUS) if math.gcd(r, MODULUS) == 1)
CSTAR = tuple(sorted(set(TOTATIVES) | {2, 3, 5}))
PI_1E7 = 664579
PI_1E8 = 5761455
# Mersenne-prime exponents up to 2300 (OEIS A000043); equal to the
# prefix of the shipped data/mersenne_exponents.txt.
MERSENNE_EXPONENTS_2300 = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127,
                           521, 607, 1279, 2203, 2281)
DENSITY_ROTATIONS = 10**6
LANDAU_LIMIT = 10**11
SAMPLED_ROWS = 200


@dataclass(frozen=True)
class Output:
    rc: int
    stdout: bytes
    file: bytes | None


@dataclass
class Op:
    """One operation. kind "cli" runs ova360.cli.dispatch(argv); "call"
    runs func(*args); "map" runs func(x) for x in inputs."""

    id: str
    kind: str = "cli"
    argv: list[str] = field(default_factory=list)
    func: str = ""
    args: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    expect_rc: int = 0
    check: Callable[[Output], list[str]] | None = None
    trace_check: Callable[[Output, dict], list[str]] | None = None

    @property
    def writes_file(self) -> bool:
        return FILE_ARG in self.argv

    @property
    def is_goldbach_scan(self) -> bool:
        return self.argv[:2] == ["goldbach", "scan"]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------ checks


def _lines(out: Output) -> list[str]:
    return out.stdout.decode().splitlines()


def _need(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def _field(text: str, name: str) -> int | None:
    m = re.search(rf"\b{name}=(\d+)", text)
    return int(m.group(1)) if m else None


def _check_goldbach_summary(out: Output, limit: int) -> list[str]:
    problems: list[str] = []
    lines = _lines(out)
    first = lines[0] if lines else ""
    _need(_field(first, "checked") == (limit - 6) // 2 + 1, f"checked count: {first!r}", problems)
    _need(_field(first, "failures") == 0, f"failures: {first!r}", problems)
    m = re.match(r"four-odd-primes witness: (\d+) = 3 \+ 3 \+ (\d+) \+ (\d+)$",
                 lines[1] if len(lines) > 1 else "")
    if m is None:
        problems.append("missing four-odd-primes witness")
    else:
        n, p, q = map(int, m.groups())
        _need(n == limit and 6 + p + q == n and sympy.isprime(p) and sympy.isprime(q),
              f"bad four-prime witness {m.group(0)!r}", problems)
    return problems


def _check_dirichlet(out: Output) -> list[str]:
    counts = [int(c) for c in re.findall(r"count=(\d+)", out.stdout.decode())]
    problems: list[str] = []
    _need(len(counts) == len(CSTAR), f"{len(counts)} classes, want {len(CSTAR)}", problems)
    _need(sum(counts) == PI_1E8, f"class counts sum to {sum(counts)}, want pi(1e8)", problems)
    return problems


def _germain_oracle(limit: int = 10**6) -> set[int]:
    return {(2 * q + 1) % MODULUS for q in sympy.primerange(2, (limit - 1) // 2 + 1)
            if sympy.isprime(2 * q + 1)}


def _check_germain(out: Output) -> list[str]:
    text = out.stdout.decode()
    m = re.search(r"residues=\[([\d, ]*)\]", text)
    problems: list[str] = []
    if m is None:
        return ["no residue list"]
    computed = {int(x) for x in m.group(1).split(",") if x.strip()}
    # Every residue that occurs below 1e6 occurs below 1e8; beyond q = 3 a
    # safe prime is 11 mod 12 and coprime to 360.
    _need(_germain_oracle() <= computed, "residues seen below 1e6 are missing", problems)
    stray = {r for r in computed if r not in (5, 7) and (r % 12 != 11 or r not in TOTATIVES)}
    _need(not stray, f"impossible residues {sorted(stray)}", problems)
    _need("golden diff: MISMATCH" in text, "the golden-list mismatch is not reported", problems)
    return problems


def _check_density(ova: int, hits: int) -> Callable[[Output], list[str]]:
    want = Fraction(hits, DENSITY_ROTATIONS)

    def check(out: Output) -> list[str]:
        got = out.stdout.decode().strip()
        return [] if got == f"{want.numerator}/{want.denominator}" else [
            f"density of {ova}: {got}, want {want}"]
    return check


def _check_verdicts(inputs: list[int]) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        got = out.stdout.decode().strip()
        want = "".join("1" if sympy.isprime(n) else "0" for n in inputs)
        bad = [n for n, g, w in zip(inputs, got, want) if g != w]
        if len(got) != len(want):
            return [f"{len(got)} verdicts for {len(want)} inputs"]
        return [f"{len(bad)} MR verdicts disagree with sympy, first {bad[0]}"] if bad else []
    return check


def _check_landau(seed: int) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        values = [int(x) for x in _lines(out)]
        problems: list[str] = []
        _need(values[:3] == [2, 5, 17], f"starts {values[:3]}", problems)
        _need(values == sorted(set(values)) and values[-1] <= LANDAU_LIMIT, "not ascending", problems)
        for v in random.Random(seed).sample(values, min(SAMPLED_ROWS, len(values))):
            k = math.isqrt(v - 1)
            _need(k * k + 1 == v and sympy.isprime(v), f"{v} is not a prime k^2+1", problems)
        return problems
    return check


def _check_interval_sum(out: Output) -> list[str]:
    report = json.loads(out.stdout)
    return [] if report["n"] == 800 and not report["violations"] else ["interval sum violations"]


def _check_mersenne_scan(out: Output) -> list[str]:
    m = re.search(r"exponents=\[([\d, ]*)\]", out.stdout.decode())
    got = tuple(int(x) for x in m.group(1).split(",")) if m else ()
    return [] if got == MERSENNE_EXPONENTS_2300 else [f"exponents {got}"]


def _trace_check_mersenne_scan(out: Output, summary: dict) -> list[str]:
    tested = _field(out.stdout.decode(), "tested")
    calls = summary["funcs"].get("mersenne.lucas_lehmer", {}).get("calls", 0)
    return [] if tested is not None and calls == tested - 2 else [
        f"lucas_lehmer traced {calls} calls, report says tested={tested}"]


def _trace_check_calls(name: str, want: int) -> Callable[[Output, dict], list[str]]:
    """Traced calls of a function ("module.func") or of a parent>child
    edge must equal `want`."""
    def check(out: Output, summary: dict) -> list[str]:
        got = (summary["edges"].get(name, 0) if ">" in name
               else summary["funcs"].get(name, {}).get("calls", 0))
        return [] if got == want else [f"{name}: {got} traced calls, want {want}"]
    return check


def _check_mersenne_ll(out: Output) -> list[str]:
    return [] if out.stdout == b"2^9941-1 is prime\n" else ["M9941 not reported prime"]


def _check_matrix(ova: int, k: int) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        report = json.loads(out.stdout)
        bits = [[int(ch) for ch in row] for row in report["bits"]]
        want = [[int(sympy.isprime(ova + MODULUS * (k * i + j + 1))) for j in range(k)]
                for i in range(k)]
        if bits != want:
            return [f"matrix bits for {ova} disagree with sympy"]
        stats = report["stats"]
        det = DomainMatrix.from_list(want, ZZ).det()
        problems: list[str] = []
        _need(int(stats["determinant"]) == int(det), f"determinant {stats['determinant']} != {det}", problems)
        _need(int(stats["ones"]) == sum(map(sum, want)), "ones", problems)
        _need([int(x) for x in stats["row_sums"]] == [sum(r) for r in want], "row sums", problems)
        _need([int(x) for x in stats["col_sums"]] == [sum(c) for c in zip(*want)], "col sums", problems)
        return problems
    return check


def combination_hits(p1: int, p2: int) -> list[int]:
    """Residues a in C* with total - a and a + 360*(gamma1 + gamma2)
    both prime, where total = ova(p1) + ova(p2) + 2."""
    total = p1 % MODULUS + p2 % MODULUS + 2
    base = MODULUS * (p1 // MODULUS + p2 // MODULUS)
    return [a for a in CSTAR
            if total - a >= 2 and sympy.isprime(total - a) and sympy.isprime(a + base)]


def _check_combine(p1: int, p2: int, hits: list[int]) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        report = json.loads(out.stdout)
        got = [int(x) for x in report["hits"]]
        return [] if got == hits and int(report["p1"]) == p1 else [
            f"combine {p1} {p2}: hits {got}, want {hits}"]
    return check


def _check_witnesses(limit: int, seed: int) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        problems = _check_goldbach_summary(out, limit)
        rows = out.file.decode().splitlines() if out.file is not None else []
        _need(rows[:1] == ["n,p,q"] and len(rows) == (limit - 6) // 2 + 2,
              f"witness file has {len(rows)} lines", problems)
        for line in random.Random(seed).sample(rows[1:], min(SAMPLED_ROWS, len(rows) - 1)):
            n, p, q = map(int, line.split(","))
            smaller = any(sympy.isprime(s) and sympy.isprime(n - s) for s in range(3, p, 2))
            _need(p + q == n and sympy.isprime(p) and sympy.isprime(q) and not smaller,
                  f"bad witness row {line}", problems)
        return problems
    return check


def _check_sieve_json(limit: int, seed: int) -> Callable[[Output], list[str]]:
    def check(out: Output) -> list[str]:
        report = json.loads(out.stdout)
        primes = [int(x) for x in report["primes"]]
        problems: list[str] = []
        _need(int(report["count"]) == PI_1E7 == len(primes), f"count {report['count']}", problems)
        _need(primes[:4] == [2, 3, 5, 7] and primes[-1] <= limit, "range", problems)
        for p in random.Random(seed).sample(primes, min(SAMPLED_ROWS, len(primes))):
            _need(sympy.isprime(p), f"{p} is not prime", problems)
        return problems
    return check


# ------------------------------------------------------------ workloads


def _sieve_scans(rng: random.Random, seed: int, expected: dict) -> list[Op]:
    z = rng.choice(TOTATIVES)
    return [
        Op("goldbach_scan_1e7", argv=["goldbach", "scan", "--limit", "10000000"],
           check=lambda out: _check_goldbach_summary(out, 10**7)),
        Op("dirichlet_all_1e8", argv=["dirichlet", "--x", "100000000", "--all"],
           check=_check_dirichlet),
        # exits 2 by design: both shipped golden lists disagree with computation
        Op("germain_1e8", argv=["germain", "--limit", "100000000"], expect_rc=2,
           check=_check_germain),
        Op("density_1e6", argv=["density", "--ova", str(z), "--rotations", str(DENSITY_ROTATIONS)],
           check=_check_density(z, expected["density_hits"][str(z)])),
    ]


def _point_queries(rng: random.Random, seed: int, expected: dict) -> list[Op]:
    small = [rng.randrange(3, 1 << 64, 2) for _ in range(5000)]
    big = [rng.getrandbits(b) | (1 << (b - 1)) | 1
           for b in (rng.randint(65, 128) for _ in range(5000))]
    ints = small + big
    rng.shuffle(ints)
    z = rng.choice(TOTATIVES)
    p1, p2 = (sympy.nextprime(rng.randrange(10**5, 10**7)) for _ in range(2))
    hits = combination_hits(p1, p2)
    return [
        Op("is_prime_big_10k", kind="map", func="primality.is_prime_big", inputs=ints,
           check=_check_verdicts(ints), trace_check=_trace_check_calls(
               "primality.is_prime_big", len(ints))),
        Op("landau_enumerate_1e11", argv=["landau", "enumerate", "--limit", str(LANDAU_LIMIT)],
           check=_check_landau(seed), trace_check=_trace_check_calls(
               "landau.enumerate_k2_plus_1>primality.is_prime_big",
               len(range(2, math.isqrt(LANDAU_LIMIT - 1) + 1, 2)))),
        Op("interval_sum_check_800", kind="call", func="goldbach.interval_sum_check", args=[800],
           check=_check_interval_sum),
        Op("mersenne_scan_2300", argv=["mersenne", "scan", "--max", "2300"],
           check=_check_mersenne_scan, trace_check=_trace_check_mersenne_scan),
        Op("mersenne_ll_9941", argv=["mersenne", "ll", "--p", "9941"], check=_check_mersenne_ll),
        Op("matrix_k60", argv=["matrix", "--ova", str(z), "--k", "60", "--format", "json"],
           check=_check_matrix(z, 60)),
        Op("goldbach_combine", argv=["goldbach", "combine", "--p1", str(p1), "--p2", str(p2),
                                     "--format", "json"],
           expect_rc=0 if hits else 2, check=_check_combine(p1, p2, hits)),
    ]


def _bulk_output(rng: random.Random, seed: int, expected: dict) -> list[Op]:
    return [
        Op("goldbach_scan_witnesses_2e6",
           argv=["goldbach", "scan", "--limit", "2000000", "--emit-witnesses", FILE_ARG],
           check=_check_witnesses(2 * 10**6, seed)),
        Op("sieve_json_1e7", argv=["sieve", "--limit", "10000000", "--format", "json"],
           check=_check_sieve_json(10**7, seed)),
    ]


WORKLOADS = {
    "sieve-scans": _sieve_scans,
    "point-queries": _point_queries,
    "bulk-output": _bulk_output,
}

# The calibration kernel (child.KERNELS) whose work is most like the
# workload's: numpy bitmap work in sieve-scans; interpreter-bound
# Miller-Rabin, Lucas-Lehmer, dataclass building and rendering elsewhere.
KERNEL = {"sieve-scans": "np", "point-queries": "py", "bulk-output": "py"}


def build(workload: str, seed: int, expected: dict) -> list[Op]:
    """The workload's operations; the seed chooses every seeded input."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), seed, expected)
