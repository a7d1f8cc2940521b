"""Report text: the decimal kernel, the JSON writer, and the writer that
puts their parts on a stream.

JSON output is canonical: keys sorted, exact integers and rationals
rendered as strings so nothing is subject to floating-point precision
loss. Long integer arrays (the `sieve` primes, the Goldbach witness
rows, JSON int arrays) are non-negative int64 and become decimal text in
numpy parts by one kernel, int_text, with no Python work per integer;
every part, and JSON text as write_json builds it, reaches a stream
through write.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
from fractions import Fraction

import numpy as np

# Rows per bytes part of the decimal kernel int_text: the lines per part
# of a plain list, and the values per part of a csv line or a JSON array,
# and the str pieces past which write_json writes those it holds. Each
# part is written as it is made, so no format holds more of an array's
# text than one part. The witness rows of `goldbach scan --limit 2000000`
# (fresh interpreter, 2-core x86-64 VM, 7 runs each) took 0.12-0.13 s and
# 9.5k minor page faults at 2^14 rows, about as at 2^12 and 2^13
# (0.11-0.15 s, 7.7-7.9k faults); 2^15 took 16k faults and 2^16 24k
# faults and 0.18-0.21 s.
EMIT_CHUNK = 1 << 14
# Characters of str text (plain or csv lines, JSON pieces) joined and
# encoded into one write; the kernel's bytes parts are written as they
# are. One print per line made `sieve --limit 1e7` three times slower as
# plain than as one csv line, and one write of all of `sieve --limit
# 1e8`'s lines peaked at 227 MB against 167 MB. JSON's small pieces are
# joined too: encoding and writing each on its own made `landau family`'s
# JSON slower than the text stream that did so before.
WRITE_CHARS = 1 << 16
# A str as JSON, escaped as json.dumps escapes it (ensure_ascii).
_quote = json.encoder.encode_basestring_ascii


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each group value 0..9999 a uint32 holding 4 ASCII bytes: its
    digits "0000".."9999"; the same with the leading zeros as NUL, for a
    group with no nonzero group above it (all NUL for 0); and the same
    for a number's last group, which keeps the "0" of zero."""
    q = np.arange(10**4)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    digits += ord("0")
    width = 1 + (q >= 10) + (q >= 100) + (q >= 1000)
    last = np.where(np.arange(4) >= 4 - width[:, None], digits, 0)
    lead = last.copy()
    lead[0] = 0
    return tuple(t.astype(np.uint8).view(np.uint32).ravel()
                 for t in (digits, lead, last))


def int_text(cols, seps):
    """Rows of the integer columns as decimal text, seps[c] after each
    value of column c: the bytes of "%d" formatting, yielded as ASCII
    bytes parts of up to EMIT_CHUNK rows, each a new object that the
    caller writes as it is.

    The columns are non-negative int64 arrays and no separator holds a
    NUL (the translate below would delete it), as joined and
    witness_rows send them. No Python work is done per integer. Each
    value fills fixed-width 4-digit groups from a 10**4-entry table, in
    which the leading zeros are NUL bytes, and one translate per part
    deletes them; the translated bytearray is the part. The text buffer
    and the arrays between the steps are allocated once per call and
    reused by every part, which keeps page faults down: in a fresh
    interpreter on a 2-core x86-64 VM, the witness file of `goldbach
    scan --limit 2000000` took 0.12-0.16 s and 9.5k minor page faults,
    and `sieve --limit 10000000 --format json` 0.06-0.07 s and 5.0-5.5k
    faults, where a compress of a kept-byte mask into fresh arrays per
    block took 0.21 s and 11-13k, and 0.11 s and 8.1-9.6k. A group is
    split off with floor_divide, multiply and subtract: int64 divmod has
    no fast path for a constant divisor, and took 71 us per part of
    16384 values against 33 us.
    """
    n = len(cols[0])
    if not n:
        return
    rows = min(n, EMIT_CHUNK)
    buf, offsets = bytearray(), []  # a row; each column's 4-digit groups
    for c, s in zip(cols, seps):
        groups = (len(str(int(c.max()))) + 3) // 4
        offsets.append(range(len(buf), len(buf) + 4 * groups, 4))
        buf += b"\0" * (4 * groups) + s.encode("ascii")
    width = len(buf)
    buf *= rows
    text = np.frombuffer(buf, np.uint8).reshape(rows, width)
    # each column with its groups as uint32 views of text
    layout = [(c, [text[:, a:a + 4].view(np.uint32)[:, 0] for a in cells])
              for c, cells in zip(cols, offsets)]
    digits, lead, last = _digit_tables()
    # two quotient rows, used in turn so that a quotient never
    # overwrites the dividend it is computed from
    q, r = np.empty((2, rows), np.int64), np.empty(rows, np.int64)
    short, partial = np.empty(rows, bool), np.empty(rows, np.uint32)
    for start in range(0, n, EMIT_CHUNK):
        m = min(EMIT_CHUNK, n - start)
        rm, sm, pm = r[:m], short[:m], partial[:m]
        for c, cells in layout:
            v = c[start:start + m]
            for k in range(len(cells) - 1, 0, -1):  # least significant first
                qm = q[k % 2, :m]
                np.floor_divide(v, 10**4, out=qm)
                np.multiply(qm, 10**4, out=rm)
                np.subtract(v, rm, out=rm)
                v = qm
                cell = cells[k][:m]
                # each index is in 0..9999 by construction; take's
                # default mode would buffer out= to check it
                np.take(digits, rm, out=cell, mode="clip")
                np.equal(qm, 0, out=sm)
                if sm.any():  # rows with no nonzero group above this one
                    table = last if k == len(cells) - 1 else lead
                    np.take(table, rm, out=pm, mode="clip")
                    np.copyto(cell, pm, where=sm)
            table = lead if len(cells) > 1 else last
            np.take(table, v, out=cells[0][:m], mode="clip")
        if m < rows:  # the rows a short last part leaves hold no text
            text[m:] = 0
        yield buf.translate(None, b"\0")


def joined(values, sep: str, end: str):
    """The int64 values joined by sep, then end, as the kernel's bytes
    parts, built when iterated: nothing for no values."""
    return itertools.chain(int_text([values[:-1]], [sep]),
                           int_text([values[-1:]], [end]))


def witness_rows(first: int, best):
    """CSV rows "n,p,q" for one Goldbach scan block, as the kernel's
    parts; n without a witness is left out."""
    if best.all():  # every n has a witness: no gather
        n, p = np.arange(first, first + 2 * best.size, 2), best
    else:
        found = np.flatnonzero(best)
        n, p = first + 2 * found, best[found]
    return int_text([n, p, n - p], [",", ",", "\n"])


def write_json(obj, stream) -> None:
    """Write obj's JSON text and a final newline to the text stream by
    write, as it is built: byte for byte what json.dumps(indent=2,
    sort_keys=True) gives once exact quantities are strings. Ints and
    Fractions become strings, int64 arrays lists of strings, dataclasses
    dicts, dict keys str(key); sets are sorted and enums give their value.

    The pending str pieces are written whenever a container item leaves
    more than EMIT_CHUNK of them. A non-negative int64 array writes the
    pieces before it, then the kernel's bytes parts as they are made, so
    it streams as the plain lines do; one that holds a negative value is
    written as its list. The caller flushes or closes the stream."""
    out = []
    _json_parts(obj, out, "", stream)
    out.append("\n")
    write(out, stream)


def _json_parts(obj, out: list, indent: str, stream) -> None:
    """Append to out the JSON pieces of obj at nesting indent."""
    if isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, Fraction)):  # a Fraction as "p" or "p/q"
        out.append(_quote(str(obj)))
    elif isinstance(obj, enum.Enum):
        text = json.dumps(obj.value, indent=2, sort_keys=True)
        out.append(text.replace("\n", "\n" + indent))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _json_parts({f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj)}, out, indent, stream)
    elif isinstance(obj, dict):
        fields = {str(k): v for k, v in obj.items()}
        _json_container("{}", [(_quote(k) + ": ", fields[k])
                               for k in sorted(fields)], out, indent, stream)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        _json_container("[]", [("", v) for v in seq], out, indent, stream)
    elif isinstance(obj, np.ndarray) and obj.dtype == np.int64:
        # the list rule writes "[]", and the signs the kernel cannot
        if not obj.size or obj.min() < 0:
            _json_parts(obj.tolist(), out, indent, stream)
            return
        inner = indent + "  "
        out += ["[\n", inner, '"']
        write(itertools.chain(out, joined(obj, '",\n' + inner + '"', "")), stream)
        out[:] = ['"\n', indent, "]"]
    else:  # None, float, str; anything else raises TypeError
        out.append(json.dumps(obj))


def _json_container(brackets: str, items, out: list, indent: str,
                    stream) -> None:
    """A JSON object or array of (prefix, value) items, where prefix is
    an object's quoted key and ": ", or "" in an array."""
    if not items:
        out.append(brackets)
        return
    inner = indent + "  "
    for i, (prefix, value) in enumerate(items):
        out.append((",\n" if i else brackets[0] + "\n") + inner + prefix)
        _json_parts(value, out, inner, stream)
        if len(out) > EMIT_CHUNK:
            write(out, stream)
            out.clear()
    out += ["\n", indent, brackets[1]]


def write(items, stream) -> None:
    """Write the str and bytes items to the text stream's binary buffer,
    after one flush of its text layer, so that text written to the
    stream before comes first. A bytes item is written as it is. A run
    of str items is joined and encoded once, in the stream's encoding,
    and written when it reaches WRITE_CHARS characters or meets a bytes
    item. The caller flushes or closes the stream."""
    stream.flush()
    out = stream.buffer
    run, size = [], 0
    for item in items:
        if isinstance(item, str):
            run.append(item)
            size += len(item)
            if size < WRITE_CHARS:
                continue
        if run:
            out.write("".join(run).encode(stream.encoding, stream.errors))
            run, size = [], 0
        if not isinstance(item, str):
            out.write(item)
    if run:
        out.write("".join(run).encode(stream.encoding, stream.errors))
