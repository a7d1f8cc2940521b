"""Command-line interface: the argparse tree, one handler per verb, and
the emitter that renders each report as plain, csv or JSON text through
ova360.render. The exit codes and the JSON conventions are stated in
_DESCRIPTION, which `ova360 --help` prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import re
import sys

import numpy as np

from . import goldbach, goldens, landau, matrix, mersenne, ova, primality, render
from .errors import BoundError, CounterexampleFound, DomainError, OvaError

_FORMATS = ("plain", "csv", "json")
# `ova360 --help` prints this text; it is pinned by digest, so it is kept
# here rather than read from the module docstring.
_DESCRIPTION = """Command-line interface.

Exit codes: 0 success, 1 domain/usage error (message on stderr), 2
mathematical finding (Goldbach failure, empty combination hits, golden
data mismatch) with a structured report on stdout. JSON output is
canonical: keys sorted, exact integers and rationals rendered as
strings so nothing is subject to floating-point precision loss.
"""
# Longest integer a report can hold, in decimal digits: a K-sequence
# entry at its index bound, or the exact reciprocal sum at its term bound.
_MAX_DIGITS = max(mersenne.KSEQ_MAX_DIGITS, mersenne.SUM_MAX_DIGITS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument that starts with "-" for an option
        # unless it looks like a negative number. Let anything that
        # starts like one be a value, so `--alpha -5..0` parses as a
        # range (no option of this CLI starts with "-" and a digit).
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _emit(fmt: str, payload, plain_lines, csv_lines=None) -> None:
    """Write payload as JSON, or the lines of the chosen format; any
    other format (matrix's "bits") writes the plain lines.

    The line arguments may be lazy iterables: only the chosen one is
    consumed, as it is written, so a JSON run builds no lines. A str
    item is a line, or several "\n"-joined lines, and gets its last "\n"
    here; a bytes item (the kernel's parts, as render.int_text gives
    them) holds its own newlines. Lines go to stdout by render.write,
    JSON by render.write_json as it is built; then stdout is flushed. If
    the reader closes stdout early (`| head`), the rest is dropped
    without a traceback and dispatch still returns the verb's exit code;
    any other failed write raises OvaError.
    Python's int -> str limit (4300 digits by default, 0 for none) is
    raised to _MAX_DIGITS while it writes.
    """
    old = sys.get_int_max_str_digits()
    if 0 < old < _MAX_DIGITS:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        if fmt == "json":
            render.write_json(payload, sys.stdout)
        else:
            if fmt == "csv" and csv_lines is not None:
                plain_lines = csv_lines
            render.write((line + "\n" if isinstance(line, str) else line
                          for line in plain_lines), sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except OSError as exc:
        # point the fd at devnull, so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise OvaError(f"cannot write stdout: {exc.strerror}") from None
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------- handlers
# Each handler returns (payload, plain_lines, csv_lines, exit_code);
# csv_lines None means csv repeats the plain lines.


def _prime_list(limit: int, primes):
    """A verb's result that lists the int64 primes up to limit."""
    payload = {"limit": limit, "count": primes.size, "primes": primes}
    lines = render.int_text([primes], ["\n"])
    return payload, lines, render.joined(primes, ",", "\n"), 0


def _cmd_sieve(args):
    return _prime_list(args.limit, primality.sieve_primes(args.limit))


def _cmd_interval(args):
    iv = primality.composite_interval(args.n, verify=args.verify)
    gap = primality.interval_gap(args.n)
    payload = dataclasses.asdict(iv)
    payload["members"] = iv.members()
    payload["gap_to_next"] = gap
    payload["verified"] = bool(args.verify)
    lines = [
        f"n={iv.n} low={iv.low} high={iv.high}",
        f"members={iv.high - iv.low + 1} gap_to_next={gap}",
    ]
    if args.verify:
        lines.append("all members verified composite")
    return payload, lines, None, 0


def _cmd_classify(args):
    d = ova.decompose(args.value)
    label = ova.classify_residue(d.ova)
    payload = dataclasses.asdict(d)
    payload["residue_class"] = label
    return payload, [
        f"value={d.value} ova={d.ova} frequency={d.frequency} "
        f"class={label.value}",
    ], None, 0


def _cmd_sets(args):
    sets = ova.residue_sets()
    payload = dataclasses.asdict(sets)  # the sets, rendered sorted
    for name, members in list(payload.items()):
        payload[f"card_{name}"] = len(members)
    lines = [
        f"|A|={len(sets.A)} |B|={len(sets.B)} "
        f"|C*|={len(sets.Cstar)} |C|={len(sets.C)}",
    ]
    rc = 0
    if args.diff_golden:
        diffs = {}
        for name, computed in (("set_a.txt", sets.A), ("set_b.txt", sets.B)):
            d = goldens.diff(name, computed)
            diffs[name] = {"missing_from_computed": d.missing_from_computed,
                           "extra_in_computed": d.extra_in_computed}
            lines.append(f"{name}: missing={list(d.missing_from_computed)} "
                         f"extra={list(d.extra_in_computed)}")
            if not d.clean:
                rc = 2
        payload["golden_diff"] = diffs
        lines.append("golden diff: " + ("MISMATCH" if rc else "clean"))
    return payload, lines, None, rc


def _cmd_inverse(args):
    inv = ova.ova_inverse(args.ova)
    payload = {"ova": args.ova, "inverse": inv}
    return payload, [f"inverse({args.ova}) = {inv}"], None, 0


def _cmd_germain(args):
    computed = tuple(sorted(ova.germain_residues(args.limit)))
    diffs = tuple(goldens.diff(name, computed)
                  for name in ("germain_v1.txt", "germain_v2.txt"))
    clean = all(d.clean for d in diffs)
    payload = {"limit": args.limit, "computed": computed, "diffs": diffs,
               "clean": clean}
    lines = [f"limit={args.limit} residues={list(computed)}"]
    for d in diffs:
        lines.append(
            f"{d.golden_name}: missing_from_computed="
            f"{list(d.missing_from_computed)} "
            f"extra_in_computed={list(d.extra_in_computed)} "
            f"duplicates_in_golden={list(d.duplicates_in_golden)}"
        )
    lines.append("golden diff: " + ("clean" if clean else "MISMATCH"))
    return payload, lines, None, 0 if clean else 2


def _cmd_genfunc(args):
    coeffs = np.array(ova.genfunc_coefficients(args.family, args.count),
                      dtype=np.int64)
    payload = {"family": args.family, "count": args.count,
               "coefficients": coeffs}
    lines = render.int_text([coeffs], ["\n"])
    return payload, lines, render.joined(coeffs, ",", "\n"), 0


def _cmd_goldbach_scan(args):
    if args.emit_witnesses:
        goldbach.check_scan_limit(args.limit)  # before the file is created
        if args.limit > goldbach.MAX_WITNESS_LIMIT:
            raise BoundError(f"limit {args.limit} exceeds witness file bound "
                             f"{goldbach.MAX_WITNESS_LIMIT}")
        path = args.emit_witnesses
        try:
            fh = open(path, "w", encoding="ascii")
        except OSError as exc:
            raise OvaError(f"cannot open --emit-witnesses {path}: "
                           f"{exc.strerror}") from None
        try:
            with fh:
                render.write(["n,p,q\n"], fh)
                report = goldbach.scan(
                    args.limit, on_block=lambda first, best: render.write(
                        render.witness_rows(first, best), fh))
        except OSError as exc:
            raise OvaError(f"cannot write --emit-witnesses {path}: "
                           f"{exc.strerror}") from None
    else:
        report = goldbach.scan(args.limit)
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
    return report, lines, None, 2 if report.failures else 0


def _cmd_goldbach_construct(args):
    c = goldbach.bertrand_construction(args.n)
    return c, [
        f"n={c.n} rho_f={c.rho_f} f={c.f} k={c.k} "
        f"half_parity={c.half_parity.value}",
    ], None, 0


def _cmd_goldbach_combine(args):
    r = goldbach.ova_combination_check(args.p1, args.p2)
    lines = [
        f"p1={r.p1} p2={r.p2} ova_sum={r.ova_sum} gamma_sum={r.gamma_sum}",
        f"candidates={list(r.candidates)}",
        f"hits={list(r.hits)}",
    ]
    if not r.hits:
        lines.append("FINDING: no candidate residue is prime at the "
                     "combined rotation")
    return r, lines, None, 0 if r.hits else 2


def _cmd_mersenne_classify(args):
    c = mersenne.classify_exponent(args.p)
    payload = {
        "exponent": c.exponent, "residue": c.residue,
        "class": c.class_label, "exponent_mod12": c.exponent_mod12,
    }
    return payload, [
        f"p={c.exponent} residue={c.residue} class={c.class_label.value} "
        f"p_mod_12={c.exponent_mod12}",
    ], None, 0


def _cmd_mersenne_filter(args):
    survivors = sorted(mersenne.criteria_filter())
    elim = mersenne.criteria_eliminations()
    payload = {"survivors": survivors, "eliminated": elim}
    lines = [f"survivors={survivors}"]
    lines += [f"criterion {k}: eliminated {len(v)}" for k, v in elim.items()]
    return payload, lines, None, 0


def _cmd_mersenne_scan(args):
    r = mersenne.scan_exponents(args.max)
    return r, [
        f"max_p={r.max_p} tested={r.tested} "
        f"skipped_by_class={r.skipped_by_class}",
        f"exponents={list(r.mersenne_exponents)}",
    ], None, 0


def _cmd_mersenne_ll(args):
    verdict = mersenne.lucas_lehmer(args.p)
    payload = {"p": args.p, "mersenne_prime": verdict}
    lines = [f"2^{args.p}-1 is {'prime' if verdict else 'composite'}"]
    return payload, lines, None, 0


def _cmd_mersenne_constant(args):
    s = mersenne.inverse_sum(args.terms, args.digits)
    frac = mersenne.inverse_sum_fraction(args.terms)
    payload = {"terms": args.terms, "digits": args.digits,
               "decimal": s, "exact": frac}
    return payload, [s], None, 0


def _cmd_mersenne_kseq(args):
    if args.to < getattr(args, "from"):
        raise DomainError("--to must be >= --from")
    entries = mersenne.k_sequence(
        args.klass, range(getattr(args, "from"), args.to + 1)
    )
    payload = {
        "class": entries[0].class_label,
        "entries": [
            {"index": e.index, "exponent": e.exponent, "K": e.K}
            for e in entries
        ],
    }
    # lazy, so that _emit's digit allowance covers K
    plain = (f"index={e.index} exponent={e.exponent} K={e.K}" for e in entries)
    csv_rows = itertools.chain(["index,exponent,K"], (
        f"{e.index},{e.exponent},{e.K}" for e in entries))
    return payload, plain, csv_rows, 0


def _cmd_landau_residues(args):
    computed = tuple(sorted(landau.landau_residues(args.limit)))
    d = goldens.diff("landau_residues.txt", computed)
    is_subset = not d.extra_in_computed
    payload = {"limit": args.limit, "computed": computed, "golden": d.golden,
               "missing_from_computed": d.missing_from_computed,
               "extra_in_computed": d.extra_in_computed,
               "is_subset": is_subset}
    lines = [
        f"limit={args.limit} computed={list(computed)}",
        f"missing_from_computed={list(d.missing_from_computed)} "
        f"extra_in_computed={list(d.extra_in_computed)}",
    ]
    if not is_subset:
        lines.append("FINDING: computed residues escape the golden set")
    return payload, lines, None, 0 if is_subset else 2


def _parse_alpha_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        alphas = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        alphas = range(0)
    if not alphas:  # malformed, or a range a..b with b < a
        raise DomainError(
            f"alpha must be an integer or a range a..b, got {text!r}")
    return alphas


def _cmd_landau_family(args):
    alphas = _parse_alpha_range(args.alpha)
    rows = landau.quad_families(args.ova, alphas)
    payload = {"ova": args.ova, "rows": rows}
    verdict = {None: "-", True: "prime", False: "composite"}
    # lazy, so that only the chosen format's lines are built
    plain = (f"{r.label} alpha={r.alpha} k={r.k} n={r.n} "
             f"frequency={r.frequency} value={r.value} {verdict[r.is_prime]}"
             + (f" ({r.note})" if r.note else "") for r in rows)
    csv_rows = itertools.chain(["label,alpha,k,n,frequency,value,is_prime,skipped"], (
        f"{r.label},{r.alpha},{r.k},{r.n},"
        f"{'' if r.frequency is None else r.frequency},{r.value},"
        f"{'' if r.is_prime is None else int(r.is_prime)},{int(r.skipped)}"
        for r in rows))
    return payload, plain, csv_rows, 0


def _cmd_landau_enumerate(args):
    primes = landau.enumerate_k2_plus_1(args.limit)
    return _prime_list(args.limit, np.array(primes, dtype=np.int64))


def _cmd_matrix(args):
    m = matrix.build_matrix(args.ova, args.k, args.start)
    bit_lines = ["".join(str(b) for b in row) for row in m.bits]
    payload = dataclasses.asdict(m)
    payload["bits"] = bit_lines
    payload["stats"] = matrix.matrix_stats(m)
    csv_rows = [",".join(str(b) for b in row) for row in m.bits]
    return payload, bit_lines, csv_rows, 0


def _cmd_density(args):
    d = matrix.density(args.ova, args.rotations)
    payload = {"ova": args.ova, "rotations": args.rotations, "density": d}
    return payload, [f"{d.numerator}/{d.denominator}"], None, 0


def _dirichlet_line(r) -> str:
    if r.ratio is None:
        return f"ova={r.ova} count={r.count} (singleton class, ratio omitted)"
    return f"ova={r.ova} count={r.count} ratio={r.ratio:.6f}"


def _cmd_dirichlet(args):
    if not args.all:
        r = matrix.dirichlet_ratio(args.x, args.ova)
        return r, [_dirichlet_line(r)], None, 0
    reports = matrix.dirichlet_all(args.x)
    singles = [r for r in reports if r.ratio is None]
    classes = [r for r in reports if r.ratio is not None]
    mean = sum(r.ratio for r in classes) / len(classes)
    payload = {
        "x": args.x,
        "classes": classes,
        "singletons": [{"ova": r.ova, "count": r.count} for r in singles],
        "mean_ratio": mean,
        "prime_count": sum(r.count for r in reports),  # C* holds every prime
    }
    plain = [_dirichlet_line(r) for r in classes + singles]
    plain.append(f"mean_ratio={mean:.6f}")
    csv_rows = ["ova,count,ratio"] + [
        f"{r.ova},{r.count},{r.ratio!r}" for r in classes
    ] + [f"{r.ova},{r.count}," for r in singles]
    return payload, plain, csv_rows, 0


# ---------------------------------------------------------------- parser

_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_FAMILIES = {"choices": ("particular", "twin", "full"), "required": True}

# The verbs in help order. A verb is (handler, flags, keywords for
# _verb); a group is (help, its verbs).
_VERBS = {
    "sieve": (_cmd_sieve, {"--limit": _INT},
              {"help": "primes up to a limit"}),
    "interval": (_cmd_interval, {"--n": _INT, "--verify": _FLAG},
                 {"help": "factorial composite interval"}),
    "classify": (_cmd_classify, {"--value": _INT},
                 {"help": "decompose and classify a value"}),
    "sets": (_cmd_sets, {"--diff-golden": _FLAG},
             {"help": "residue set cardinalities"}),
    "inverse": (_cmd_inverse, {"--ova": _INT},
                {"help": "inverse modulo 360"}),
    "germain": (_cmd_germain, {"--limit": _INT},
                {"help": "safe-prime residues and golden diff"}),
    "genfunc": (_cmd_genfunc, {"--family": _FAMILIES, "--count": _INT},
                {"help": "generating-function coefficients"}),
    "goldbach": ("Goldbach scans and constructions", {
        "scan": (_cmd_goldbach_scan,
                 {"--limit": _INT, "--emit-witnesses": {"metavar": "PATH"}},
                 {}),
        "construct": (_cmd_goldbach_construct, {"--n": _INT}, {}),
        "combine": (_cmd_goldbach_combine, {"--p1": _INT, "--p2": _INT}, {}),
    }),
    "mersenne": ("Mersenne residue classes", {
        "classify": (_cmd_mersenne_classify, {"--p": _INT}, {}),
        "filter": (_cmd_mersenne_filter, {}, {}),
        "scan": (_cmd_mersenne_scan, {"--max": _INT}, {}),
        "ll": (_cmd_mersenne_ll, {"--p": _INT}, {}),
        "constant": (_cmd_mersenne_constant,
                     {"--terms": _INT, "--digits": _INT}, {}),
        "kseq": (_cmd_mersenne_kseq,
                 {"--class": {"dest": "klass", "required": True},
                  "--from": _INT, "--to": _INT}, {}),
    }),
    "landau": ("primes of the form k^2+1", {
        "residues": (_cmd_landau_residues, {"--limit": _INT}, {}),
        "family": (_cmd_landau_family, {"--ova": _INT, "--alpha": {
            "default": "0..14",
            "help": "single value or inclusive range a..b; "
                    "either may be negative, as in -5..0"}}, {}),
        "enumerate": (_cmd_landau_enumerate, {"--limit": _INT}, {}),
    }),
    "matrix": (_cmd_matrix, {"--ova": _INT, "--k": _INT,
                             "--start": {"type": int, "default": 1}},
               {"formats": ("bits", "csv", "json"),
                "help": "prime-indicator matrix"}),
    "density": (_cmd_density, {"--ova": _INT, "--rotations": _INT},
                {"help": "exact prime density of a class"}),
    "dirichlet": (_cmd_dirichlet, {"--x": _INT},
                  {"exclusive": {"--ova": {"type": int}, "--all": _FLAG},
                   "help": "class counts vs equidistribution"}),
}


def _verb(sub, name, handler, flags, formats=_FORMATS, exclusive=None,
          **parser_kw):
    """Add verb ``name`` with its flags, --format, the flags of which it
    needs exactly one, and its handler."""
    s = sub.add_parser(name, **parser_kw)
    for flag, kw in flags.items():
        s.add_argument(flag, **kw)
    s.add_argument("--format", choices=formats, default=formats[0])
    if exclusive:
        group = s.add_mutually_exclusive_group(required=True)
        for flag, kw in exclusive.items():
            group.add_argument(flag, **kw)
    s.set_defaults(handler=handler)


def _add_verbs(parser, dest: str, verbs: dict, path) -> None:
    """Add the verbs to parser, or only path[0] with its own path[1:]."""
    sub = parser.add_subparsers(dest=dest)
    for name in path[:1] or verbs:
        spec = verbs[name]
        if isinstance(spec[0], str):
            _add_verbs(sub.add_parser(name, help=spec[0]), "subcommand",
                       spec[1], path[1:])
        else:
            handler, flags, kw = spec
            _verb(sub, name, handler, flags, **kw)


def _branch(argv) -> list[str]:
    """The verb, and a group's subverb, that argv names, or [] where the
    whole tree is needed: for -h/--help, no verb or an unknown one, whose
    help and errors list every verb. Only --version may come first."""
    if any(a.startswith(("-h", "--h")) for a in argv):
        return []
    args = list(itertools.dropwhile(
        lambda a: a.startswith("--v") and "--version".startswith(a), argv))
    path, verbs = [], _VERBS
    for name in args[:2]:
        if name not in verbs:
            break
        path.append(name)
        if not isinstance(verbs[name][0], str):
            break
        verbs = verbs[name][1]
    return path


def _build_parser(argv=None) -> _Parser:
    """The CLI's parser: the whole tree, or with argv only the branch
    of the verb it names. In a fresh interpreter on a 2-core x86-64 VM,
    building and parsing with the whole tree took 5.8-9.3 ms, with one
    branch 2.5-3.8 ms."""
    p = _Parser(prog="ova360", description=_DESCRIPTION)
    p.add_argument("--version", action="store_true",
                   help="print toolkit and data versions")
    _add_verbs(p, "command", _VERBS, [] if argv is None else _branch(argv))
    return p


def _version_line() -> str:
    # imported here: importlib.metadata pulls in email, socket and more,
    # which only --version needs
    from importlib import metadata

    try:
        pkg_version = metadata.version("ova360")
    except metadata.PackageNotFoundError:
        pkg_version = "unknown"
    return f"ova360 {pkg_version} (data {goldens.data_version()})"


def dispatch(argv=None) -> int:
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        if args.version:
            _emit("plain", None, [_version_line()])
            return 0
        if not hasattr(args, "handler"):  # the usage lists every verb
            _build_parser().print_usage(sys.stderr)
            return 1
        try:
            payload, plain_lines, csv_lines, rc = args.handler(args)
            _emit(args.format, payload, plain_lines, csv_lines)
            return rc
        except CounterexampleFound as exc:
            _emit(args.format, {"finding": str(exc)}, [f"FINDING: {exc}"])
            return 2
    except OvaError as exc:  # a domain error, or a write that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
