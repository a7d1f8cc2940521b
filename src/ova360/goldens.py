"""Access to the bundled golden data files.

Golden files hold independently tabulated values (residue lists, matrix
bit patterns, link-family coefficients) that the library is checked
against. The directory can be overridden with the OVA360_GOLDEN
environment variable; the default is the packaged ``data/`` directory.
"""

from __future__ import annotations

import collections
import csv
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import GoldenDataError

_ENV_VAR = "OVA360_GOLDEN"


def golden_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path(str(resources.files("ova360") / "data"))


def _read_text(name: str) -> str:
    path = golden_dir() / name
    try:
        return path.read_text()
    except OSError as exc:
        raise GoldenDataError(f"cannot read golden file {path}: {exc}") from exc


def load_int_lines(name: str) -> tuple[int, ...]:
    """Read one integer per line. Duplicates and order are preserved."""
    out = []
    for ln in _read_text(name).splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            out.append(int(ln))
        except ValueError as exc:
            raise GoldenDataError(f"{name}: bad line {ln!r}") from exc
    return tuple(out)


def load_bit_rows(name: str) -> tuple[tuple[int, ...], ...]:
    """Read a 0/1 matrix stored as one string of bits per line."""
    rows = []
    for ln in _read_text(name).splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if set(ln) - {"0", "1"}:
            raise GoldenDataError(f"{name}: bad bit row {ln!r}")
        rows.append(tuple(int(c) for c in ln))
    if len({len(r) for r in rows}) > 1:
        raise GoldenDataError(f"{name}: ragged rows")
    return tuple(rows)


def load_pairs(name: str) -> tuple[tuple[int, int], ...]:
    """Read comma-separated integer pairs, one per line."""
    out = []
    for ln in _read_text(name).splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            a, b = ln.split(",")
            out.append((int(a), int(b)))
        except ValueError as exc:
            raise GoldenDataError(f"{name}: bad pair {ln!r}") from exc
    return tuple(out)


def load_csv_rows(name: str) -> list[dict[str, str]]:
    text = _read_text(name)
    return list(csv.DictReader(text.splitlines()))


@dataclass(frozen=True)
class GoldenDiff:
    golden_name: str
    golden: tuple[int, ...]
    duplicates_in_golden: tuple[int, ...]
    missing_from_computed: tuple[int, ...]
    extra_in_computed: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.missing_from_computed and not self.extra_in_computed


def diff(name: str, computed) -> GoldenDiff:
    """The integer list `name` (load_int_lines) against the computed
    members: the list as read, the members it repeats, and what each
    side lacks of the other, each sorted."""
    golden = load_int_lines(name)
    gs, cs = set(golden), set(computed)
    return GoldenDiff(
        golden_name=name,
        golden=golden,
        duplicates_in_golden=tuple(sorted(
            x for x, n in collections.Counter(golden).items() if n > 1)),
        missing_from_computed=tuple(sorted(gs - cs)),
        extra_in_computed=tuple(sorted(cs - gs)),
    )


def data_version() -> str:
    return _read_text("VERSION").strip()
