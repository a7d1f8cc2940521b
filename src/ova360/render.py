"""Report text: the decimal kernel, the JSON writer, and the writer that
puts their parts on a stream.

JSON output is canonical: keys sorted, exact integers and rationals
rendered as strings so nothing is subject to floating-point precision
loss. Long integer arrays (the `sieve` primes, the Goldbach witness
rows, JSON int arrays) are non-negative int64 and become decimal text in
numpy parts by one kernel, int_text, with no Python work per integer:
a column whose values in a part share one digit count is written at
that width, and only a part with some other column has NUL padding to
delete. Every part, and JSON text as write_json builds it, reaches a
stream through write.
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
# text than one part. The witness file of `goldbach scan --limit
# 2000000` (dispatch alone in a fresh interpreter, 2-core x86-64 VM, 5
# runs each) took 0.065-0.092 s and 7.6k minor page faults at 2^14
# rows, about as at 2^12, 2^13 and 2^15 (0.060-0.095 s, 6.6-7.8k
# faults); 2^16 took 0.071-0.077 s and 11.6k faults.
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
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each group value 0..9999 a uint32 holding 4 ASCII bytes: its
    digits "0000".."9999"; the same with the leading zeros as NUL, for a
    group with no nonzero group above it (all NUL for 0); the same for a
    number's last group, which keeps the "0" of zero; and, in row h of
    heads (h = 1..4), a group below 10**h as its h digits first and NULs
    after, for the top group of an exact field."""
    q = np.arange(10**4)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    digits += ord("0")
    width = 1 + (q >= 10) + (q >= 100) + (q >= 1000)
    last = np.where(np.arange(4) >= 4 - width[:, None], digits, 0)
    lead = last.copy()
    lead[0] = 0
    heads = np.zeros((5, 10**4, 4), np.int64)
    for h in range(1, 5):
        heads[h, :, :h] = digits[:, 4 - h:]
    return tuple(t.astype(np.uint8).view(np.uint32)[..., 0]
                 for t in (digits, lead, last, heads))


def _rows(widths, seps, rows: int):
    """A text buffer of rows rows, each a field of widths[c] bytes and
    then seps[c] per column c; the buffer as a rows x width uint8 array;
    and each field's 4-byte cells as uint32 views of it, most
    significant first. The top cell starts the field and the lower ones
    end it, 4 bytes apart, so the top cell of a field whose width is not
    a multiple of 4 overlaps the next cell."""
    buf, starts = bytearray(), []
    for w, s in zip(widths, seps):
        starts.append(len(buf))
        buf += b"\0" * w + s.encode("ascii")
    width = len(buf)
    buf *= rows
    text = np.frombuffer(buf, np.uint8).reshape(rows, width)
    cells = [[text[:, a + o:a + o + 4].view(np.uint32)[:, 0]
              for o in [0] + list(range(w % 4 or 4, w, 4))]
             for a, w in zip(starts, widths)]
    return buf, text, cells


def int_text(cols, seps):
    """Rows of the integer columns as decimal text, seps[c] after each
    value of column c: the bytes of "%d" formatting, yielded as ASCII
    bytes parts of up to EMIT_CHUNK rows, each a new object that the
    caller writes as it is.

    The columns are non-negative int64 arrays and no separator holds a
    NUL (the translate below would delete it), as joined and
    witness_rows send them. No Python work is done per integer: each
    value fills 4-digit groups from 10**4-entry tables, and each part
    is laid out per column from its least and greatest value.

    - A column whose values in the part all have d >= 4 digits is
      exact: its field is d bytes wide. Its top group's cell holds that
      group's digits first and NULs after, and the next group's cell,
      written after it, overwrites the NULs.
    - Any other column fills 4-byte groups in which the leading zeros
      are NUL bytes.

    A part with no padded column is a copy of its buffer; otherwise one
    translate deletes the NULs. Translate's cost follows the NULs it
    meets, and n and q of the Goldbach witness rows, and an ascending
    list such as the primes from 10**4 up, are exact in almost every
    part. On a 2-core x86-64 VM one block of 2^18 witness rows near
    1.5e8 took 9.4-9.6 ms against 14.2-14.8 ms with every group padded,
    and `joined` over the primes to 1e7 with JSON's separator about 5 ms
    against 10 ms (medians of 30 runs).

    Each distinct tuple of field widths gets a text buffer. The buffers
    and the arrays between the steps are allocated once per call and
    reused by every part, which keeps page faults down: for the witness
    file of `goldbach scan --limit 2000000`, a compress of a kept-byte
    mask into fresh arrays per block took 0.21 s and 11-13k minor page
    faults, against 0.12-0.16 s and 9.5k for one reused buffer. A group
    is split off with floor_divide, multiply and subtract: int64 divmod
    has no fast path for a constant divisor, and took 71 us per part of
    16384 values against 33 us. It is taken from its table into a
    contiguous row and then copied to its cell, 25 us against 31 us for
    a take into the strided cell.
    """
    n = len(cols[0])
    if not n:
        return
    rows = min(n, EMIT_CHUNK)
    digits, lead, last, heads = _digit_tables()
    buffers = {}  # _rows of each tuple of field widths met
    # two quotient rows, used in turn so that a quotient never
    # overwrites the dividend it is computed from
    q, r = np.empty((2, rows), np.int64), np.empty(rows, np.int64)
    short = np.empty(rows, bool)
    group, partial = np.empty((2, rows), np.uint32)
    for start in range(0, n, EMIT_CHUNK):
        m = min(EMIT_CHUNK, n - start)
        rm, sm, gm, pm = r[:m], short[:m], group[:m], partial[:m]
        values = [c[start:start + m] for c in cols]
        sizes = [(len(str(int(v.min()))), len(str(int(v.max()))))
                 for v in values]
        exact = [low == high >= 4 for low, high in sizes]
        widths = tuple(high if e else (high + 3) // 4 * 4
                       for (_, high), e in zip(sizes, exact))
        if widths not in buffers:
            buffers[widths] = _rows(widths, seps, rows)
        buf, text, fields = buffers[widths]
        for v, cells, e, w in zip(values, fields, exact, widths):
            # an exact field's top group has w % 4 digits, or 4
            head = heads[w % 4 or 4] if e else lead if len(cells) > 1 else last
            # each take's indices are in 0..9999 by construction; its
            # default mode would buffer out= to check them
            for k in range(len(cells) - 1, 0, -1):  # least significant first
                qm = q[k % 2, :m]
                np.floor_divide(v, 10**4, out=qm)
                np.multiply(qm, 10**4, out=rm)
                np.subtract(v, rm, out=rm)
                v = qm
                if k == 1:  # the top cell before the cell it overlaps
                    np.take(head, qm, out=gm, mode="clip")
                    cells[0][:m] = gm
                np.take(digits, rm, out=gm, mode="clip")
                if not e:
                    np.equal(qm, 0, out=sm)
                    if sm.any():  # rows with no nonzero group above this one
                        table = last if k == len(cells) - 1 else lead
                        np.take(table, rm, out=pm, mode="clip")
                        np.copyto(gm, pm, where=sm)
                cells[k][:m] = gm
            if len(cells) == 1:
                np.take(head, v, out=gm, mode="clip")
                cells[0][:m] = gm
        if all(exact):  # no NUL in the part's rows
            yield bytes(memoryview(buf)[:m * text.shape[1]])
            continue
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
