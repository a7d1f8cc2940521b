"""Command-line interface.

Exit codes: 0 success, 1 domain/usage error (message on stderr), 2
mathematical finding (Goldbach failure, empty combination hits, golden
data mismatch) with a structured report on stdout. JSON output is
canonical: keys sorted, exact integers and rationals rendered as
strings so nothing is subject to floating-point precision loss.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import goldbach, goldens, landau, matrix, mersenne, ova, primality
from .errors import CounterexampleFound, DomainError, OvaError

_FORMATS = ("plain", "csv", "json")
# Rows per block of the decimal renderer _int_text, which is also the
# lines per item of _int_lines and the values per JSON array part.
EMIT_CHUNK = 1 << 16
# Characters of plain or csv text gathered into one write. One print per
# line made `sieve --limit 1e7` three times slower as plain than as one
# csv line, and one write of all of `sieve --limit 1e8`'s lines peaked at
# 227 MB against 167 MB.
WRITE_CHARS = 1 << 16
# Longest integer a report can hold, in decimal digits: a K-sequence
# entry at its index bound, or the exact reciprocal sum at its term bound.
_MAX_DIGITS = max(mersenne.KSEQ_MAX_DIGITS, mersenne.SUM_MAX_DIGITS)
# A str as JSON, escaped as json.dumps escapes it (ensure_ascii).
_quote = json.encoder.encode_basestring_ascii


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


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each group value 0..9999 a uint32 holding 4 bytes: its ASCII
    digits "0000".."9999"; which of them a number whose higher groups
    are all zero keeps (none for 0); and the same for a number's last
    group, which keeps the "0" of zero."""
    q = np.arange(10**4)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    width = 1 + (q >= 10) + (q >= 100) + (q >= 1000)
    last = np.arange(4) >= 4 - width[:, None]
    lead = last.copy()
    lead[0] = False
    return tuple(t.astype(np.uint8).view(np.uint32).ravel()
                 for t in (digits + ord("0"), lead, last))


def _int_text(cols, seps) -> str:
    """Rows of the integer columns as decimal text, seps[c] after each
    value of column c: the bytes of "%d" formatting.

    Non-negative int64 arrays take no Python work per integer. Each
    value fills fixed-width 4-digit groups from a 10**4-entry table,
    and one boolean compress per block of EMIT_CHUNK rows drops the
    leading zeros. Anything else is formatted one value at a time.
    """
    if not all(isinstance(c, np.ndarray) and c.dtype == np.int64
               and not (c.size and c.min() < 0) for c in cols):
        fmt = "".join("%d" + s.replace("%", "%%") for s in seps)
        return "".join([fmt % row for row in zip(*cols)])
    n = len(cols[0])
    if not n:
        return ""
    layout, width = [], 0  # (column, 4-digit groups, first byte, separator)
    for c, s in zip(cols, seps):
        groups = (len(str(int(c.max()))) + 3) // 4
        layout.append((c, groups, width, s))
        width += 4 * groups + len(s)
    rows = min(n, EMIT_CHUNK)
    text = np.empty((rows, width), np.uint8)
    keep = np.ones((rows, width), bool)
    for _, groups, a, s in layout:
        end = a + 4 * groups
        text[:, end:end + len(s)] = np.frombuffer(s.encode("ascii"), np.uint8)
    digits, lead, last = _digit_tables()
    every = np.uint32(0x01010101)
    parts = []
    for start in range(0, n, EMIT_CHUNK):
        m = min(EMIT_CHUNK, n - start)
        for c, groups, a, _ in layout:
            v = c[start:start + m]
            for k in range(groups - 1, -1, -1):  # least significant first
                cell = slice(a + 4 * k, a + 4 * k + 4)
                mask = last if k == groups - 1 else lead
                if k:
                    high = v // 10**4
                    v, r = high, v - high * 10**4
                    kept = np.where(high > 0, every, mask[r])
                else:
                    r, kept = v, mask[v]
                text[:m, cell].view(np.uint32)[:, 0] = digits[r]
                keep[:m, cell].view(np.uint32)[:, 0] = kept
        parts.append(np.compress(keep[:m].ravel(), text[:m].ravel()).tobytes())
    return b"".join(parts).decode("ascii")


def _json_parts(obj, out: list, indent: str) -> None:
    """Append to out the JSON text of obj at nesting indent: byte for
    byte what json.dumps(indent=2, sort_keys=True) gives once exact
    quantities are strings. Ints and Fractions become strings, int64
    arrays lists of strings, dataclasses dicts, dict keys str(key);
    sets are sorted and enums give their value."""
    if isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, Fraction)):  # a Fraction as "p" or "p/q"
        out.append(_quote(str(obj)))
    elif isinstance(obj, enum.Enum):
        text = json.dumps(obj.value, indent=2, sort_keys=True)
        out.append(text.replace("\n", "\n" + indent))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _json_parts({f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj)}, out, indent)
    elif isinstance(obj, dict):
        fields = {str(k): v for k, v in obj.items()}
        _json_container("{}", [(_quote(k) + ": ", fields[k])
                               for k in sorted(fields)], out, indent)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        _json_container("[]", [("", v) for v in seq], out, indent)
    elif isinstance(obj, np.ndarray) and obj.dtype == np.int64:
        if not obj.size:
            out.append("[]")
            return
        # one part per EMIT_CHUNK values, each ending in the separator:
        # the array's text is never joined into one str
        inner = indent + "  "
        sep = '",\n' + inner + '"'
        out += ["[\n", inner, '"']
        out += (_int_text([obj[i:i + EMIT_CHUNK]], [sep])
                for i in range(0, obj.size, EMIT_CHUNK))
        out[-1] = out[-1][:-len(sep)]
        out += ['"\n', indent, "]"]
    else:  # None, float, str; anything else raises TypeError
        out.append(json.dumps(obj))


def _json_container(brackets: str, items, out: list, indent: str) -> None:
    """A JSON object or array of (prefix, value) items, where prefix is
    an object's quoted key and ": ", or "" in an array."""
    if not items:
        out.append(brackets)
        return
    inner = indent + "  "
    for i, (prefix, value) in enumerate(items):
        out.append((",\n" if i else brackets[0] + "\n") + inner + prefix)
        _json_parts(value, out, inner)
    out += ["\n", indent, brackets[1]]


def _emit(fmt: str, payload, plain_lines, csv_lines=None) -> None:
    """Render payload as JSON, or write the lines of the chosen format;
    any other format (matrix's "bits") writes the plain lines.

    The line arguments may be lazy iterables: only the chosen one is
    consumed, and its items are joined into one write until they reach
    WRITE_CHARS characters, so a handler can pass lines without building
    them all. An item may itself hold several "\n"-joined lines; one
    longer than WRITE_CHARS is written on its own.
    Python's int -> str limit (4300 digits; none before 3.10.7) is
    raised to _MAX_DIGITS while it writes.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old = get_limit() if get_limit else 0
    if 0 < old < _MAX_DIGITS:
        sys.set_int_max_str_digits(_MAX_DIGITS)
    try:
        if fmt == "json":  # the parts as made, not joined into one str
            out = []
            _json_parts(payload, out, "")
            out.append("\n")
            sys.stdout.writelines(out)
            return
        if fmt == "csv" and csv_lines is not None:
            plain_lines = csv_lines
        chunk, size = [], 0
        for line in plain_lines:
            chunk.append(line)
            size += len(line) + 1
            if size >= WRITE_CHARS:
                sys.stdout.write("\n".join(chunk) + "\n")
                chunk, size = [], 0
        if chunk:
            sys.stdout.write("\n".join(chunk) + "\n")
    finally:
        if get_limit:
            sys.set_int_max_str_digits(old)


def _witness_rows(first: int, best) -> str:
    """CSV rows "n,p,q" for one scan block; n without a witness is left out."""
    found = np.flatnonzero(best)
    n = first + 2 * found
    p = best[found]
    return _int_text([n, p, n - p], [",", ",", "\n"])


def _int_lines(values, sep="\n"):
    """Lines of the int64 values, built when iterated: one value a line,
    or with another sep one line of the values joined by it (none for no
    values). An item holds up to EMIT_CHUNK lines."""
    parts = (_int_text([values[i:i + EMIT_CHUNK]], [sep])[:-len(sep)]
             for i in range(0, len(values), EMIT_CHUNK))
    if sep == "\n":
        yield from parts
    elif len(values):
        yield sep.join(parts)


# ---------------------------------------------------------------- handlers
# Each handler returns (payload, plain_lines, csv_lines, exit_code);
# csv_lines None means csv repeats the plain lines.


def _cmd_sieve(args):
    table = primality.sieve_primes(args.limit)
    primes = table.primes
    payload = {"limit": table.limit, "count": table.count, "primes": primes}
    return payload, _int_lines(primes), _int_lines(primes, ","), 0


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
            golden = set(goldens.load_int_lines(name))
            missing = tuple(sorted(golden - computed))
            extra = tuple(sorted(computed - golden))
            diffs[name] = {"missing_from_computed": missing,
                           "extra_in_computed": extra}
            lines.append(f"{name}: missing={list(missing)} extra={list(extra)}")
            if missing or extra:
                rc = 2
        payload["golden_diff"] = diffs
        lines.append("golden diff: " + ("MISMATCH" if rc else "clean"))
    return payload, lines, None, rc


def _cmd_inverse(args):
    inv = ova.ova_inverse(args.ova)
    payload = {"ova": args.ova, "inverse": inv}
    return payload, [f"inverse({args.ova}) = {inv}"], None, 0


def _cmd_germain(args):
    report = ova.germain_report(args.limit)
    payload = dataclasses.asdict(report)
    payload["clean"] = report.clean
    lines = [f"limit={report.limit} residues={list(report.computed)}"]
    for d in report.diffs:
        lines.append(
            f"{d.golden_name}: missing_from_computed="
            f"{list(d.missing_from_computed)} "
            f"extra_in_computed={list(d.extra_in_computed)} "
            f"duplicates_in_golden={list(d.duplicates_in_golden)}"
        )
    lines.append("golden diff: " + ("clean" if report.clean else "MISMATCH"))
    return payload, lines, None, 0 if report.clean else 2


def _cmd_genfunc(args):
    coeffs = ova.genfunc_coefficients(args.family, args.count)
    payload = {"family": args.family, "count": args.count,
               "coefficients": coeffs}
    return (payload, [str(c) for c in coeffs],
            [",".join(str(c) for c in coeffs)], 0)


def _cmd_goldbach_scan(args):
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
    return dataclasses.asdict(report), lines, None, 2 if report.failures else 0


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
    return dataclasses.asdict(r), lines, None, 0 if r.hits else 2


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
    return dataclasses.asdict(r), [
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
    diff = landau.landau_diff(args.limit)
    payload = dataclasses.asdict(diff)
    payload["is_subset"] = diff.is_subset
    lines = [
        f"limit={diff.limit} computed={list(diff.computed)}",
        f"missing_from_computed={list(diff.missing_from_computed)} "
        f"extra_in_computed={list(diff.extra_in_computed)}",
    ]
    if not diff.is_subset:
        lines.append("FINDING: computed residues escape the golden set")
    return payload, lines, None, 0 if diff.is_subset else 2


def _parse_alpha_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise DomainError(
            f"alpha must be an integer or a range a..b, got {text!r}") from None


def _cmd_landau_family(args):
    alphas = _parse_alpha_range(args.alpha)
    rows = landau.quad_families(args.ova, alphas)
    payload = {"ova": args.ova, "rows": rows}
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
    return payload, plain, csv_rows, 0


def _cmd_landau_enumerate(args):
    primes = np.array(landau.enumerate_k2_plus_1(args.limit), dtype=np.int64)
    payload = {"limit": args.limit, "count": primes.size, "primes": primes}
    return payload, _int_lines(primes), _int_lines(primes, ","), 0


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
        "prime_count": matrix.prime_count(args.x),
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


def _verb(sub, name, handler, flags, formats=_FORMATS, **parser_kw):
    """Add verb ``name`` with its flags, --format and handler."""
    s = sub.add_parser(name, **parser_kw)
    for flag, kw in flags.items():
        s.add_argument(flag, **kw)
    s.add_argument("--format", choices=formats, default=formats[0])
    s.set_defaults(handler=handler)
    return s


def _build_parser() -> _Parser:
    p = _Parser(prog="ova360", description=__doc__)
    p.add_argument("--version", action="store_true",
                   help="print toolkit and data versions")
    sub = p.add_subparsers(dest="command")

    _verb(sub, "sieve", _cmd_sieve, {"--limit": _INT},
          help="primes up to a limit")
    _verb(sub, "interval", _cmd_interval, {"--n": _INT, "--verify": _FLAG},
          help="factorial composite interval")
    _verb(sub, "classify", _cmd_classify, {"--value": _INT},
          help="decompose and classify a value")
    _verb(sub, "sets", _cmd_sets, {"--diff-golden": _FLAG},
          help="residue set cardinalities")
    _verb(sub, "inverse", _cmd_inverse, {"--ova": _INT},
          help="inverse modulo 360")
    _verb(sub, "germain", _cmd_germain, {"--limit": _INT},
          help="safe-prime residues and golden diff")
    families = {"choices": ("particular", "twin", "full"), "required": True}
    _verb(sub, "genfunc", _cmd_genfunc, {"--family": families, "--count": _INT},
          help="generating-function coefficients")

    g = sub.add_parser("goldbach", help="Goldbach scans and constructions")
    gsub = g.add_subparsers(dest="subcommand")
    _verb(gsub, "scan", _cmd_goldbach_scan,
          {"--limit": _INT, "--emit-witnesses": {"metavar": "PATH"}})
    _verb(gsub, "construct", _cmd_goldbach_construct, {"--n": _INT})
    _verb(gsub, "combine", _cmd_goldbach_combine, {"--p1": _INT, "--p2": _INT})

    m = sub.add_parser("mersenne", help="Mersenne residue classes")
    msub = m.add_subparsers(dest="subcommand")
    _verb(msub, "classify", _cmd_mersenne_classify, {"--p": _INT})
    _verb(msub, "filter", _cmd_mersenne_filter, {})
    _verb(msub, "scan", _cmd_mersenne_scan, {"--max": _INT})
    _verb(msub, "ll", _cmd_mersenne_ll, {"--p": _INT})
    _verb(msub, "constant", _cmd_mersenne_constant,
          {"--terms": _INT, "--digits": _INT})
    _verb(msub, "kseq", _cmd_mersenne_kseq,
          {"--class": {"dest": "klass", "required": True},
           "--from": _INT, "--to": _INT})

    l = sub.add_parser("landau", help="primes of the form k^2+1")
    lsub = l.add_subparsers(dest="subcommand")
    _verb(lsub, "residues", _cmd_landau_residues, {"--limit": _INT})
    _verb(lsub, "family", _cmd_landau_family,
          {"--ova": _INT, "--alpha": {
              "default": "0..14",
              "help": "single value or inclusive range a..b; "
                      "either may be negative, as in -5..0"}})
    _verb(lsub, "enumerate", _cmd_landau_enumerate, {"--limit": _INT})

    _verb(sub, "matrix", _cmd_matrix,
          {"--ova": _INT, "--k": _INT, "--start": {"type": int, "default": 1}},
          formats=("bits", "csv", "json"), help="prime-indicator matrix")
    _verb(sub, "density", _cmd_density, {"--ova": _INT, "--rotations": _INT},
          help="exact prime density of a class")
    s = _verb(sub, "dirichlet", _cmd_dirichlet, {"--x": _INT},
              help="class counts vs equidistribution")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--ova", type=int)
    group.add_argument("--all", action="store_true")

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if args.version:
        _emit("plain", None, [_version_line()])
        return 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        payload, plain_lines, csv_lines, rc = args.handler(args)
        _emit(args.format, payload, plain_lines, csv_lines)
        return rc
    except CounterexampleFound as exc:
        _emit("json", {"finding": str(exc)}, ())
        return 2
    except OvaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
