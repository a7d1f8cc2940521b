"""render's bulk integer kernel and JSON writer against the per-value
formatting they replaced (conftest oracles)."""

from __future__ import annotations

import dataclasses
import enum
import io
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ova360 import render

_EDGES = [0, 2**63 - 1] + [
    10**k + d for k in range(19) for d in (-1, 0, 1) if 0 <= 10**k + d < 2**63
]
_INT64 = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**63 - 1))
# int_text takes separators with no NUL: its NULs mark leading zeros
_SEPS = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=6)


def _emitted_json(payload) -> str:
    """What render writes to a text stream for payload as JSON; it
    writes to the binary buffer under the text stream."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    render.write(render.json_items(payload), out)
    out.flush()
    return raw.getvalue().decode("utf-8")


def _percent(cols, seps) -> bytes:
    return "".join("%d" % v + s for row in zip(*cols)
                   for v, s in zip(row, seps)).encode("ascii")


@given(st.data(), st.integers(1, 3), st.integers(0, 40), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_int_text_matches_percent_d(data, ncols, size, chunk):
    cols = [np.array(data.draw(st.lists(_INT64, min_size=size, max_size=size)),
                     dtype=np.int64) for _ in range(ncols)]
    seps = [data.draw(_SEPS) for _ in range(ncols)]
    with mock.patch.object(render, "EMIT_CHUNK", chunk):
        assert b"".join(render.int_text(cols, seps)) == _percent(cols, seps)


@pytest.mark.parametrize("size", sorted({
    0, 1, render.EMIT_CHUNK - 1, render.EMIT_CHUNK, render.EMIT_CHUNK + 1,
    # one row either side of 2^16 rows: a whole number of parts
    65535, 65536, 65537}))
def test_int_text_at_sizes_and_the_chunk_edge(size):
    rng = np.random.default_rng(size)
    values = np.resize(np.array(_EDGES, dtype=np.int64), size)
    cols = [values, rng.permutation(values), rng.integers(0, 2**63 - 1, size)]
    seps = [",", '",\n    "', "\n"]
    _assert_same_text(b"".join(render.int_text(cols, seps)), _percent(cols, seps))


_GROUP_EDGES = [0, 9, 10, 9999, 10**4 - 1, 10**4, 10**4 + 1, 10**8 - 1,
                10**8, 10**8 + 1, 10**12, 2**63 - 1]


def _assert_same_text(got: bytes, want: bytes) -> None:
    # the first difference in context: a diff of whole texts this long
    # would take pytest minutes
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    assert (len(got), got[i - 30:i + 30]) == (len(want), want[i - 30:i + 30])


def _kernel_matches_oracles(cols, seps, chunk, reference_int_text):
    parts = list(render.int_text(cols, seps))
    assert len(parts) == -(-len(cols[0]) // chunk)
    text = b"".join(parts)
    _assert_same_text(text, _percent(cols, seps))
    _assert_same_text(text, reference_int_text(cols, seps, chunk).encode("ascii"))


@pytest.mark.parametrize("chunk", [1, 7, render.EMIT_CHUNK])
def test_int_text_parts_at_group_edges_and_part_sizes(chunk, monkeypatch,
                                                      reference_int_text):
    # columns of 1, 2, 3 and 5 groups and one of every edge, at sizes
    # one row either side of each multiple of the part size up to three
    monkeypatch.setattr(render, "EMIT_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    edges = np.array(_GROUP_EDGES, dtype=np.int64)
    for size in sorted({k * chunk + d for k in (1, 2, 3) for d in (-1, 1)}):
        cols = [np.resize(edges, size),
                rng.integers(0, 10**4, size),
                rng.integers(0, 10**8, size),
                rng.integers(0, 10**12, size),
                rng.permutation(np.resize(edges, size))]
        cols[1][::3] = 0
        seps = [",", ";", '",\n  "', "", "\n"]
        _kernel_matches_oracles(cols, seps, chunk, reference_int_text)


@pytest.mark.parametrize("chunk", [1, 7, render.EMIT_CHUNK])
def test_int_text_short_last_part_leaks_no_stale_row(chunk, monkeypatch,
                                                     reference_int_text):
    # a full part of the widest values, then one row that is shorter in
    # every group: a row left over from the full part would show
    monkeypatch.setattr(render, "EMIT_CHUNK", chunk)
    for tail in (0, 7, 10**4):
        col = np.full(chunk + 1, 2**63 - 1, dtype=np.int64)
        col[-1] = tail
        _kernel_matches_oracles([col, col[::-1].copy()], ["-", "\n"], chunk,
                                reference_int_text)


@given(first=st.integers(3, 10**6).map(lambda x: 2 * x),
       fractions=st.lists(st.floats(0, 1), max_size=30))
@settings(max_examples=100, deadline=None)
def test_witness_rows_match_percent_rows(first, fractions, reference_witness_rows):
    # best[i] is 0 (no witness) or a p <= n for n = first + 2i
    best = np.array([int(f * (first + 2 * i)) for i, f in enumerate(fractions)],
                    dtype=np.int64)
    best[best < 3] = 0
    for chunk in (1, 2, 7, render.EMIT_CHUNK):
        with mock.patch.object(render, "EMIT_CHUNK", chunk):
            rows = b"".join(render.witness_rows(first, best))
            assert rows == reference_witness_rows(first, best).encode("ascii")


class _Tone(enum.Enum):
    WORD = "a \"word\""
    NUMBER = 3
    PAIR = (1, "é")
    TABLE = {"b": [1, 2], "a": None}


@dataclasses.dataclass(frozen=True)
class _Box:
    label: str
    value: object
    extra: object = None


_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(-10**400, 10**400),
    st.fractions(),
    st.integers().map(Fraction),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.text(),
    st.sampled_from(_Tone),
    st.lists(st.one_of(_INT64, st.integers(-2**63, -1)), max_size=8).map(
        lambda v: np.array(v, dtype=np.int64)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-9, 99)),
                        children, max_size=4),
        st.sets(st.integers(), max_size=4),
        st.frozensets(st.text(max_size=3), max_size=4),
        st.builds(_Box, st.text(max_size=3), children, children),
    )


@given(payload=st.recursive(_SCALARS, _containers, max_leaves=25))
@settings(max_examples=400, deadline=None)
def test_dump_json_matches_stringify_oracle(payload, reference_dump_json):
    assert _emitted_json(payload) == reference_dump_json(payload) + "\n"


@pytest.mark.parametrize("payload", [
    {}, [], (), set(), frozenset(), {"primes": np.zeros(0, dtype=np.int64)},
    {"nested": {"empty": {}, "list": [[]]}}, np.arange(5, dtype=np.int64),
    {3: "int key", "3": "str key", Fraction(-6, 4): "fraction key"},
])
def test_dump_json_empty_and_colliding_containers(payload, reference_dump_json):
    assert _emitted_json(payload) == reference_dump_json(payload) + "\n"


def test_dump_json_writes_a_negative_array_as_its_list():
    # the kernel writes no sign: such an array takes the list rule
    payload = {"a": np.array([-1, 0, 2**63 - 1])}
    want = json.dumps({"a": ["-1", "0", str(2**63 - 1)]}, indent=2,
                      sort_keys=True)
    # every item is a str: the kernel's lazy parts are not used
    assert "".join(render.json_items(payload)) == want + "\n"


def test_dump_json_rejects_what_json_rejects(reference_dump_json):
    for payload in ({"x": object()}, [np.zeros(2)], {"x": range(3)}):
        with pytest.raises(TypeError):
            reference_dump_json(payload)
        with pytest.raises(TypeError):
            _emitted_json(payload)
