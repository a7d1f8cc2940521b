"""Command-line interface.

Exit codes: 0 success, 1 domain/usage error (message on stderr), 2
mathematical finding (Goldbach failure, empty combination hits, golden
data mismatch) with a structured report on stdout. JSON output is
canonical: keys sorted, exact integers and rationals rendered as
strings so nothing is subject to floating-point precision loss.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

from . import goldbach, goldens, landau, matrix, mersenne, ova, primality
from .errors import (
    BoundError,
    CounterexampleFound,
    DomainError,
    GoldenDataError,
    OvaError,
)

_FORMATS = ("plain", "csv", "json")
# Lines per write in plain and csv output. One print per line made
# `sieve --limit 1e7` three times slower as plain than as one csv line.
EMIT_CHUNK = 1 << 16


@dataclass
class RunConfig:
    """Execution limits and output settings for one invocation."""

    format: str = "plain"
    sieve_limit: int = primality.MAX_PRIME_LIST_LIMIT
    scan_limit: int = goldbach.MAX_SCAN_LIMIT
    ll_max_p: int = mersenne.MAX_LL_EXPONENT
    factorial_max: int = primality.MAX_FACTORIAL_N
    golden_dir: Path | None = None

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise DomainError(f"format must be one of {_FORMATS}")
        caps = (
            (self.sieve_limit, primality.MAX_PRIME_LIST_LIMIT),
            (self.scan_limit, goldbach.MAX_SCAN_LIMIT),
            (self.ll_max_p, mersenne.MAX_LL_EXPONENT),
            (self.factorial_max, primality.MAX_FACTORIAL_N),
        )
        for value, maximum in caps:
            if value > maximum:
                raise DomainError(f"cap {value} exceeds maximum {maximum}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _stringify(obj):
    """Exact quantities become strings; structure is preserved."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _stringify(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_stringify(v) for v in seq]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_stringify(payload), indent=2, sort_keys=True)


def _emit(cfg: RunConfig, payload, plain_lines, csv_lines=None) -> None:
    """Render payload as JSON, or write the lines of the chosen format.

    The line arguments may be lazy iterables: only the chosen one is
    consumed, EMIT_CHUNK lines at a time, each chunk joined into one
    write, so a handler can pass lines without building them all.
    """
    if cfg.format == "json":
        print(_dump_json(payload))
        return
    if cfg.format == "csv" and csv_lines is not None:
        plain_lines = csv_lines
    lines = iter(plain_lines)
    while chunk := list(itertools.islice(lines, EMIT_CHUNK)):
        sys.stdout.write("\n".join(chunk) + "\n")


def _witness_rows(first: int, best) -> str:
    """CSV rows "n,p,q" for one scan block; n without a witness is left out."""
    ns = first + 2 * np.arange(best.size, dtype=np.int64)
    found = best != 0
    rows = np.empty((int(found.sum()), 3), dtype=np.int64)
    rows[:, 0] = ns[found]
    rows[:, 1] = best[found]
    rows[:, 2] = rows[:, 0] - rows[:, 1]
    return "%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())


@contextlib.contextmanager
def _int_str_digits(digits: int):
    """Let int -> str render up to ``digits`` digits inside the block;
    Python's default limit is 4300 (none before 3.10.7)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old = get_limit() if get_limit else 0
    if 0 < old < digits:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if get_limit:
            sys.set_int_max_str_digits(old)


def _fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- handlers


def _cmd_sieve(cfg: RunConfig, args) -> int:
    if args.limit > cfg.sieve_limit:
        raise BoundError(f"limit {args.limit} exceeds cap {cfg.sieve_limit}")
    table = primality.sieve_primes(args.limit)
    primes = table.primes.tolist()
    payload = {"limit": table.limit, "count": table.count, "primes": primes}
    _emit(cfg, payload, plain_lines=map(str, primes), csv_lines=_csv_line(primes))
    return 0


def _csv_line(values):
    """The values as one comma-separated line, built when iterated;
    no line for no values."""
    if values:
        yield ",".join(map(str, values))


def _cmd_interval(cfg: RunConfig, args) -> int:
    if args.n > cfg.factorial_max:
        raise BoundError(f"n {args.n} exceeds cap {cfg.factorial_max}")
    iv = primality.composite_interval(args.n, verify=args.verify)
    gap = primality.interval_gap(args.n)
    payload = {
        "n": iv.n, "low": iv.low, "high": iv.high,
        "members": iv.members(), "gap_to_next": gap,
        "verified": bool(args.verify),
    }
    lines = [
        f"n={iv.n} low={iv.low} high={iv.high}",
        f"members={iv.high - iv.low + 1} gap_to_next={gap}",
    ]
    if args.verify:
        lines.append("all members verified composite")
    _emit(cfg, payload, lines)
    return 0


def _cmd_classify(cfg: RunConfig, args) -> int:
    d = ova.decompose(args.value)
    label = ova.classify_residue(d.ova)
    payload = {
        "value": d.value, "ova": d.ova, "frequency": d.frequency,
        "residue_class": label,
    }
    _emit(cfg, payload, [
        f"value={d.value} ova={d.ova} frequency={d.frequency} "
        f"class={label.value}",
    ])
    return 0


def _cmd_sets(cfg: RunConfig, args) -> int:
    sets = ova.residue_sets()
    payload = {
        "A": sorted(sets.A), "B": sorted(sets.B),
        "Cstar": sorted(sets.Cstar), "C": sorted(sets.C),
        "card_A": len(sets.A), "card_B": len(sets.B),
        "card_Cstar": len(sets.Cstar), "card_C": len(sets.C),
    }
    lines = [
        f"|A|={len(sets.A)} |B|={len(sets.B)} "
        f"|C*|={len(sets.Cstar)} |C|={len(sets.C)}",
    ]
    rc = 0
    if args.diff_golden:
        diffs = {}
        for name, computed in (("set_a.txt", sets.A), ("set_b.txt", sets.B)):
            golden = set(goldens.load_int_lines(name, cfg.golden_dir))
            missing = tuple(sorted(golden - computed))
            extra = tuple(sorted(computed - golden))
            diffs[name] = {"missing_from_computed": missing,
                           "extra_in_computed": extra}
            lines.append(f"{name}: missing={list(missing)} extra={list(extra)}")
            if missing or extra:
                rc = 2
        payload["golden_diff"] = diffs
        lines.append("golden diff: " + ("MISMATCH" if rc else "clean"))
    _emit(cfg, payload, lines)
    return rc


def _cmd_inverse(cfg: RunConfig, args) -> int:
    inv = ova.ova_inverse(args.ova)
    payload = {"ova": args.ova, "inverse": inv}
    _emit(cfg, payload, [f"inverse({args.ova}) = {inv}"])
    return 0


def _cmd_germain(cfg: RunConfig, args) -> int:
    report = ova.germain_report(args.limit, cfg.golden_dir)
    payload = {
        "limit": report.limit,
        "computed": list(report.computed),
        "diffs": [dataclasses.asdict(d) for d in report.diffs],
        "clean": report.clean,
    }
    lines = [f"limit={report.limit} residues={list(report.computed)}"]
    for d in report.diffs:
        lines.append(
            f"{d.golden_name}: missing_from_computed="
            f"{list(d.missing_from_computed)} "
            f"extra_in_computed={list(d.extra_in_computed)} "
            f"duplicates_in_golden={list(d.duplicates_in_golden)}"
        )
    lines.append("golden diff: " + ("clean" if report.clean else "MISMATCH"))
    _emit(cfg, payload, lines)
    return 0 if report.clean else 2


def _cmd_genfunc(cfg: RunConfig, args) -> int:
    coeffs = ova.genfunc_coefficients(args.family, args.count)
    payload = {"family": args.family, "count": args.count,
               "coefficients": coeffs}
    _emit(cfg, payload,
          plain_lines=[str(c) for c in coeffs],
          csv_lines=[",".join(str(c) for c in coeffs)])
    return 0


def _cmd_goldbach_scan(cfg: RunConfig, args) -> int:
    if args.limit > cfg.scan_limit:
        raise BoundError(f"limit {args.limit} exceeds cap {cfg.scan_limit}")
    if args.emit_witnesses:
        goldbach.check_scan_limit(args.limit)  # before the file is created
        with open(args.emit_witnesses, "w") as fh:
            fh.write("n,p,q\n")
            report = goldbach.scan(
                args.limit,
                on_block=lambda first, best: fh.write(_witness_rows(first, best)),
            )
        if report.failures:
            raise CounterexampleFound(
                f"no decomposition for {list(report.failures)}"
            )
    else:
        report = goldbach.scan(args.limit)
    payload = dataclasses.asdict(report)
    lines = [
        f"checked={report.checked} max_smallest_p={report.max_smallest_p} "
        f"at n={report.argmax_n} failures={len(report.failures)}",
    ]
    if report.four_prime_witness:
        lines.append(
            f"four-odd-primes witness: {report.four_prime_n} = "
            + " + ".join(str(x) for x in report.four_prime_witness)
        )
    if report.failures:
        lines.append(f"FAILURES: {list(report.failures)}")
    _emit(cfg, payload, lines)
    return 2 if report.failures else 0


def _cmd_goldbach_construct(cfg: RunConfig, args) -> int:
    c = goldbach.bertrand_construction(args.n)
    payload = {
        "n": c.n, "rho_f": c.rho_f, "f": c.f, "k": c.k,
        "half_parity": c.half_parity,
    }
    _emit(cfg, payload, [
        f"n={c.n} rho_f={c.rho_f} f={c.f} k={c.k} "
        f"half_parity={c.half_parity.value}",
    ])
    return 0


def _cmd_goldbach_combine(cfg: RunConfig, args) -> int:
    r = goldbach.ova_combination_check(args.p1, args.p2)
    payload = dataclasses.asdict(r)
    lines = [
        f"p1={r.p1} p2={r.p2} ova_sum={r.ova_sum} gamma_sum={r.gamma_sum}",
        f"candidates={list(r.candidates)}",
        f"hits={list(r.hits)}",
    ]
    if not r.hits:
        lines.append("FINDING: no candidate residue is prime at the "
                     "combined rotation")
    _emit(cfg, payload, lines)
    return 0 if r.hits else 2


def _cmd_mersenne_classify(cfg: RunConfig, args) -> int:
    c = mersenne.classify_exponent(args.p)
    payload = {
        "exponent": c.exponent, "residue": c.residue,
        "class": c.class_label, "exponent_mod12": c.exponent_mod12,
    }
    _emit(cfg, payload, [
        f"p={c.exponent} residue={c.residue} class={c.class_label.value} "
        f"p_mod_12={c.exponent_mod12}",
    ])
    return 0


def _cmd_mersenne_filter(cfg: RunConfig, args) -> int:
    survivors = sorted(mersenne.criteria_filter())
    elim = mersenne.criteria_eliminations()
    payload = {"survivors": survivors,
               "eliminated": {k: list(v) for k, v in elim.items()}}
    lines = [f"survivors={survivors}"]
    lines += [f"criterion {k}: eliminated {len(v)}" for k, v in elim.items()]
    _emit(cfg, payload, lines)
    return 0


def _cmd_mersenne_scan(cfg: RunConfig, args) -> int:
    if args.max > cfg.ll_max_p:
        raise BoundError(f"max {args.max} exceeds cap {cfg.ll_max_p}")
    r = mersenne.scan_exponents(args.max, cfg.ll_max_p)
    payload = dataclasses.asdict(r)
    _emit(cfg, payload, [
        f"max_p={r.max_p} tested={r.tested} "
        f"skipped_by_class={r.skipped_by_class}",
        f"exponents={list(r.mersenne_exponents)}",
    ])
    return 0


def _cmd_mersenne_ll(cfg: RunConfig, args) -> int:
    verdict = mersenne.lucas_lehmer(args.p, cfg.ll_max_p)
    payload = {"p": args.p, "mersenne_prime": verdict}
    _emit(cfg, payload, [
        f"2^{args.p}-1 is {'prime' if verdict else 'composite'}",
    ])
    return 0


def _cmd_mersenne_constant(cfg: RunConfig, args) -> int:
    s = mersenne.inverse_sum(args.terms, args.digits)
    frac = mersenne.inverse_sum_fraction(args.terms)
    payload = {"terms": args.terms, "digits": args.digits,
               "decimal": s, "exact": frac}
    _emit(cfg, payload, [s])
    return 0


def _cmd_mersenne_kseq(cfg: RunConfig, args) -> int:
    if args.to < getattr(args, "from"):
        raise DomainError("--to must be >= --from")
    entries = mersenne.k_sequence(
        args.klass, range(getattr(args, "from"), args.to + 1)
    )
    payload = {
        "class": entries[0].class_label if entries else args.klass,
        "entries": [
            {"index": e.index, "exponent": e.exponent, "K": e.K}
            for e in entries
        ],
    }
    with _int_str_digits(mersenne.KSEQ_MAX_DIGITS):
        _emit(cfg, payload,
              plain_lines=[
                  f"index={e.index} exponent={e.exponent} K={e.K}"
                  for e in entries
              ],
              csv_lines=["index,exponent,K"] + [
                  f"{e.index},{e.exponent},{e.K}" for e in entries
              ])
    return 0


def _cmd_landau_residues(cfg: RunConfig, args) -> int:
    diff = landau.landau_diff(args.limit, cfg.golden_dir)
    payload = dataclasses.asdict(diff)
    payload["is_subset"] = diff.is_subset
    lines = [
        f"limit={diff.limit} computed={list(diff.computed)}",
        f"missing_from_computed={list(diff.missing_from_computed)} "
        f"extra_in_computed={list(diff.extra_in_computed)}",
    ]
    if not diff.is_subset:
        lines.append("FINDING: computed residues escape the golden set")
    _emit(cfg, payload, lines)
    return 0 if diff.is_subset else 2


def _parse_alpha_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _cmd_landau_family(cfg: RunConfig, args) -> int:
    alphas = _parse_alpha_range(args.alpha)
    rows = landau.quad_families(args.ova, alphas)
    payload = {"ova": args.ova, "rows": [dataclasses.asdict(r) for r in rows]}
    plain = []
    csv_rows = ["label,alpha,k,n,frequency,value,is_prime,skipped"]
    for r in rows:
        verdict = "-" if r.is_prime is None else ("prime" if r.is_prime
                                                  else "composite")
        note = f" ({r.note})" if r.note else ""
        plain.append(
            f"{r.label} alpha={r.alpha} k={r.k} n={r.n} "
            f"frequency={r.frequency} value={r.value} {verdict}{note}"
        )
        csv_rows.append(
            f"{r.label},{r.alpha},{r.k},{r.n},"
            f"{'' if r.frequency is None else r.frequency},{r.value},"
            f"{'' if r.is_prime is None else int(r.is_prime)},{int(r.skipped)}"
        )
    _emit(cfg, payload, plain, csv_rows)
    return 0


def _cmd_landau_enumerate(cfg: RunConfig, args) -> int:
    primes = landau.enumerate_k2_plus_1(args.limit)
    payload = {"limit": args.limit, "count": len(primes), "primes": primes}
    _emit(cfg, payload,
          plain_lines=[str(p) for p in primes],
          csv_lines=[",".join(str(p) for p in primes)] if primes else [])
    return 0


def _cmd_matrix(cfg: RunConfig, args) -> int:
    m = matrix.build_matrix(args.ova, args.k, args.start)
    stats = matrix.matrix_stats(m)
    bit_lines = ["".join(str(b) for b in row) for row in m.bits]
    if args.format == "json":
        payload = {
            "ova": m.ova, "k": m.k, "start": m.start, "bits": bit_lines,
            "stats": dataclasses.asdict(stats),
        }
        print(_dump_json(payload))
    elif args.format == "csv":
        for row in m.bits:
            print(",".join(str(b) for b in row))
    else:
        for line in bit_lines:
            print(line)
    return 0


def _cmd_density(cfg: RunConfig, args) -> int:
    d = matrix.density(args.ova, args.rotations)
    payload = {"ova": args.ova, "rotations": args.rotations, "density": d}
    _emit(cfg, payload, [_fmt_fraction(d)])
    return 0


def _cmd_dirichlet(cfg: RunConfig, args) -> int:
    if args.all:
        reports = matrix.dirichlet_all(args.x)
        singles = [r for r in reports if r.ratio is None]
        classes = [r for r in reports if r.ratio is not None]
        mean = sum(r.ratio for r in classes) / len(classes)
        payload = {
            "x": args.x,
            "classes": [dataclasses.asdict(r) for r in classes],
            "singletons": [
                {"ova": r.ova, "count": r.count} for r in singles
            ],
            "mean_ratio": mean,
            "prime_count": matrix.prime_count(args.x),
        }
        plain = [
            f"ova={r.ova} count={r.count} ratio={r.ratio:.6f}"
            for r in classes
        ]
        plain += [f"ova={r.ova} count={r.count} (singleton class, "
                  "ratio omitted)" for r in singles]
        plain.append(f"mean_ratio={mean:.6f}")
        csv_rows = ["ova,count,ratio"] + [
            f"{r.ova},{r.count},{r.ratio!r}" for r in classes
        ] + [f"{r.ova},{r.count}," for r in singles]
        _emit(cfg, payload, plain, csv_rows)
        return 0
    r = matrix.dirichlet_ratio(args.x, args.ova)
    payload = dataclasses.asdict(r)
    if r.ratio is None:
        line = f"ova={r.ova} count={r.count} (singleton class, ratio omitted)"
    else:
        line = f"ova={r.ova} count={r.count} ratio={r.ratio:.6f}"
    _emit(cfg, payload, [line])
    return 0


# ---------------------------------------------------------------- parser


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=_FORMATS, default="plain")


def _build_parser() -> _Parser:
    p = _Parser(prog="ova360", description=__doc__)
    p.add_argument("--version", action="store_true",
                   help="print toolkit and data versions")
    sub = p.add_subparsers(dest="command")

    s = sub.add_parser("sieve", help="primes up to a limit")
    s.add_argument("--limit", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_sieve)

    s = sub.add_parser("interval", help="factorial composite interval")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--verify", action="store_true")
    _add_format(s)
    s.set_defaults(handler=_cmd_interval)

    s = sub.add_parser("classify", help="decompose and classify a value")
    s.add_argument("--value", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_classify)

    s = sub.add_parser("sets", help="residue set cardinalities")
    s.add_argument("--diff-golden", action="store_true")
    _add_format(s)
    s.set_defaults(handler=_cmd_sets)

    s = sub.add_parser("inverse", help="inverse modulo 360")
    s.add_argument("--ova", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_inverse)

    s = sub.add_parser("germain", help="safe-prime residues and golden diff")
    s.add_argument("--limit", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_germain)

    s = sub.add_parser("genfunc", help="generating-function coefficients")
    s.add_argument("--family", choices=("particular", "twin", "full"),
                   required=True)
    s.add_argument("--count", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_genfunc)

    g = sub.add_parser("goldbach", help="Goldbach scans and constructions")
    gsub = g.add_subparsers(dest="subcommand")
    s = gsub.add_parser("scan")
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--emit-witnesses", metavar="PATH")
    _add_format(s)
    s.set_defaults(handler=_cmd_goldbach_scan)
    s = gsub.add_parser("construct")
    s.add_argument("--n", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_goldbach_construct)
    s = gsub.add_parser("combine")
    s.add_argument("--p1", type=int, required=True)
    s.add_argument("--p2", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_goldbach_combine)

    m = sub.add_parser("mersenne", help="Mersenne residue classes")
    msub = m.add_subparsers(dest="subcommand")
    s = msub.add_parser("classify")
    s.add_argument("--p", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_classify)
    s = msub.add_parser("filter")
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_filter)
    s = msub.add_parser("scan")
    s.add_argument("--max", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_scan)
    s = msub.add_parser("ll")
    s.add_argument("--p", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_ll)
    s = msub.add_parser("constant")
    s.add_argument("--terms", type=int, required=True)
    s.add_argument("--digits", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_constant)
    s = msub.add_parser("kseq")
    s.add_argument("--class", dest="klass", required=True)
    s.add_argument("--from", type=int, required=True)
    s.add_argument("--to", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_mersenne_kseq)

    l = sub.add_parser("landau", help="primes of the form k^2+1")
    lsub = l.add_subparsers(dest="subcommand")
    s = lsub.add_parser("residues")
    s.add_argument("--limit", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_landau_residues)
    s = lsub.add_parser("family")
    s.add_argument("--ova", type=int, required=True)
    s.add_argument("--alpha", default="0..14",
                   help="single value or inclusive range a..b")
    _add_format(s)
    s.set_defaults(handler=_cmd_landau_family)
    s = lsub.add_parser("enumerate")
    s.add_argument("--limit", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_landau_enumerate)

    s = sub.add_parser("matrix", help="prime-indicator matrix")
    s.add_argument("--ova", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--start", type=int, default=1)
    s.add_argument("--format", choices=("bits", "csv", "json"),
                   default="bits")
    s.set_defaults(handler=_cmd_matrix)

    s = sub.add_parser("density", help="exact prime density of a class")
    s.add_argument("--ova", type=int, required=True)
    s.add_argument("--rotations", type=int, required=True)
    _add_format(s)
    s.set_defaults(handler=_cmd_density)

    s = sub.add_parser("dirichlet", help="class counts vs equidistribution")
    s.add_argument("--x", type=int, required=True)
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--ova", type=int)
    group.add_argument("--all", action="store_true")
    _add_format(s)
    s.set_defaults(handler=_cmd_dirichlet)

    return p


def _print_version() -> None:
    try:
        pkg_version = metadata.version("ova360")
    except metadata.PackageNotFoundError:
        pkg_version = "unknown"
    print(f"ova360 {pkg_version} (data {goldens.data_version()})")


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if args.version:
        _print_version()
        return 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        fmt = getattr(args, "format", "plain")
        cfg = RunConfig(format=fmt if fmt in _FORMATS else "plain")
        return args.handler(cfg, args)
    except CounterexampleFound as exc:
        print(_dump_json({"finding": str(exc)}))
        return 2
    except (DomainError, BoundError, GoldenDataError, OvaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
