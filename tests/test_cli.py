"""End-to-end exercises of the argparse surface via dispatch()."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ova360
from ova360 import goldbach, goldens, mersenne, primality
from ova360.cli import dispatch


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _child_env() -> dict:
    """The environment for a child interpreter that imports the package
    under test, also where pytest's pythonpath setting (not the
    environment) put it on sys.path."""
    src = str(Path(ova360.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_version(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.startswith("ova360 ")


def test_import_leaves_out_importlib_metadata():
    # only --version reads the package metadata; every other run of the
    # CLI should not pay for importing it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ova360.cli; "
         "print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_sieve_scans_leave_out_numpy_ma():
    # np.unique and np.r_ import numpy.ma on their first call, which took
    # 8-9 ms in a fresh process: the four verbs of perfbench's sieve-scans
    # workload, run in one interpreter, call neither
    code = """
import os, sys
from contextlib import redirect_stdout
from ova360.cli import dispatch
with open(os.devnull, "w") as sink, redirect_stdout(sink):
    codes = [dispatch(argv) for argv in (
        ["goldbach", "scan", "--limit", "10000000"],
        ["dirichlet", "--x", "100000000", "--all"],
        ["germain", "--limit", "100000000"],
        ["density", "--ova", "7", "--rotations", "1000000"])]
print(codes, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 2, 0] False\n"), proc.stderr


def test_help_exits_zero(capsys):
    rc, _, _ = run(capsys, "--help")
    assert rc == 0


def test_no_command_is_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1
    assert "usage" in err


# sha256 (first 16 hex digits) of [rc, stdout, stderr] as JSON, per
# argv, at COLUMNS=80 under CPython 3.11's argparse: every --help and
# the usage errors, whichever part of the parser tree dispatch builds.
_PARSER_TEXT_DIGESTS = {
    "--help": "1f3d04eabfeed323",
    "-h": "1f3d04eabfeed323",
    "goldbach --help": "3f3d3ecd2c040a45",
    "mersenne -h": "87ff46001bb6a7e4",
    "landau --help": "0b5e8150a6d48527",
    "sieve --help": "d86b8ba12cb28fd5",
    "interval --help": "39896a88724af0f8",
    "classify --help": "0328e4f96e9dc683",
    "sets --help": "7e55c8bd90b8e1a2",
    "inverse --help": "70769634114a28f6",
    "germain --help": "5d8fe81fab8c17c8",
    "genfunc --help": "c95a679a116b795f",
    "goldbach scan --help": "66fc9dc71d5314d2",
    "goldbach construct --help": "7f191c5ae91c2965",
    "goldbach combine --help": "ef040e1908f01a8c",
    "mersenne classify --help": "2f905e6ea0a9130a",
    "mersenne filter --help": "c0625230b13a3612",
    "mersenne scan --help": "688adc5f546f6e24",
    "mersenne ll --help": "56ce1c0356f081ad",
    "mersenne constant --help": "67aa36d6a40862dd",
    "mersenne kseq --help": "3634d04399e27d18",
    "landau residues --help": "fd108f8bdcec18a0",
    "landau family --help": "b363575a14a4d5a0",
    "landau enumerate --help": "59de8949249f325a",
    "matrix --help": "0288ebd975e9dbcf",
    "density --help": "048ef01187dac93b",
    "dirichlet --help": "4c064103d3a4b062",
    "": "c7678e4612beb79b",
    "frobnicate": "db2505af5398294f",
    "goldbach": "c7678e4612beb79b",
    "goldbach frobnicate": "3298d1f8c7cfde1c",
    "sieve": "cd2f1bad79d7fa5c",
    "sieve --limit x": "21db9f05b0ca1bb2",
    "goldbach construct": "e55bed9f4ea0c52d",
    "goldbach combine --p1 5 --p2 y": "19d680cba441907b",
    "dirichlet --x 100": "3f033fd10f7a1993",
    "dirichlet --x 100 --ova 7 --all": "d6fe7b112d8fd291",
    "sieve --limit 5 extra": "b5dafd507a31d15d",
    "-5 sieve --limit 3": "483fc7ce42a0480f",
    "--vers sieve --limit x": "21db9f05b0ca1bb2",
    "goldbach --version scan --limit 8": "a3526f8feb24e755",
    "sieve --lim 10": "975989583f0323ec",
    "matrix --ova 7 --k 2 --format plain": "d3d13c13d52b836e",
}


def _parser_texts(capsys, monkeypatch, argvs) -> dict:
    monkeypatch.setenv("COLUMNS", "80")
    texts = {}
    for argv in argvs:
        rc, out, err = run(capsys, *argv.split())
        record = json.dumps([rc, out, err]).encode()
        texts[argv] = hashlib.sha256(record).hexdigest()[:16]
    return texts


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help layout differs between argparse versions")
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    texts = _parser_texts(capsys, monkeypatch, _PARSER_TEXT_DIGESTS)
    assert texts == _PARSER_TEXT_DIGESTS


def test_branch_parser_matches_the_whole_tree(capsys, monkeypatch):
    # the same texts when dispatch is made to build the whole tree
    from ova360 import cli

    argvs = list(_PARSER_TEXT_DIGESTS) + [
        "sieve --limit 30", "goldbach construct --n 20",
        "landau family --ova 161 --alpha -2..0", "-- sieve --limit 3",
        "goldbach -- scan --limit 8", "sieve -hx", "--he"]
    branch = _parser_texts(capsys, monkeypatch, argvs)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=None: build())
    assert _parser_texts(capsys, monkeypatch, argvs) == branch


def test_unknown_command(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1
    assert "error" in err


def test_missing_required_flag(capsys):
    rc, _, err = run(capsys, "classify")
    assert rc == 1
    assert "error" in err


def test_sets_plain(capsys):
    rc, out, _ = run(capsys, "sets")
    assert rc == 0
    assert "|A|=72 |B|=27 |C*|=99 |C|=96" in out


def test_sets_diff_golden_clean(capsys):
    rc, out, _ = run(capsys, "sets", "--diff-golden")
    assert rc == 0
    assert "golden diff: clean" in out


def test_sets_json_roundtrip_is_byte_identical(capsys):
    rc, first, _ = run(capsys, "sets", "--format", "json")
    assert rc == 0
    rc, second, _ = run(capsys, "sets", "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["card_A"] == "72"
    assert doc["A"][0] == "2"
    assert len(doc["C"]) == 96


def test_sets_golden_override_mismatch(capsys, tmp_path, monkeypatch):
    a = goldens.load_int_lines("set_a.txt")
    b = goldens.load_int_lines("set_b.txt")
    fake = list(a[:-1]) + [349]  # drop 359, duplicate an entry
    (tmp_path / "set_a.txt").write_text(
        "\n".join(str(x) for x in fake) + "\n"
    )
    (tmp_path / "set_b.txt").write_text(
        "\n".join(str(x) for x in b) + "\n"
    )
    monkeypatch.setenv("OVA360_GOLDEN", str(tmp_path))
    rc, out, _ = run(capsys, "sets", "--diff-golden")
    assert rc == 2
    assert "MISMATCH" in out
    assert "extra=[359]" in out


@pytest.fixture
def altered_goldens(tmp_path, monkeypatch):
    """A copy of the golden lists in which each list repeats a member,
    loses one and gains a class that cannot occur."""
    shutil.copytree(goldens.golden_dir(), tmp_path, dirs_exist_ok=True)
    for name, drop, repeat, impossible in (
        ("set_a.txt", 7, 3, 9),
        ("set_b.txt", 1, 49, 4),
        ("germain_v1.txt", 23, 47, 9),
        ("germain_v2.txt", 359, 11, 2),
        ("landau_residues.txt", 101, 17, 3),
    ):
        kept = [x for x in goldens.load_int_lines(name) if x != drop]
        (tmp_path / name).write_text(
            "".join(f"{x}\n" for x in (*kept, repeat, impossible)))
    monkeypatch.setenv("OVA360_GOLDEN", str(tmp_path))


def test_residue_set_verbs_diff_altered_goldens(capsys, altered_goldens):
    rc, out, _ = run(capsys, "sets", "--diff-golden")
    assert (rc, out.splitlines()[1:]) == (2, [
        "set_a.txt: missing=[9] extra=[7]",
        "set_b.txt: missing=[4] extra=[1]",
        "golden diff: MISMATCH",
    ])
    rc, out, _ = run(capsys, "germain", "--limit", "1000000")
    assert (rc, out.splitlines()[1:]) == (2, [
        "germain_v1.txt: missing_from_computed=[9, 187, 191] "
        "extra_in_computed=[23] duplicates_in_golden=[47]",
        "germain_v2.txt: missing_from_computed=[2, 187, 191] "
        "extra_in_computed=[359] duplicates_in_golden=[11, 23]",
        "golden diff: MISMATCH",
    ])
    # landau residues fails only on a computed class the list lacks:
    # below 101 = 10**2 + 1 no prime k**2 + 1 is 101 mod 360
    rc, out, _ = run(capsys, "landau", "residues", "--limit", "100")
    assert (rc, out.splitlines()[1:]) == (0, [
        "missing_from_computed=[1, 3, 41, 77, 137, 161, 181, 197, 217, 221, "
        "257, 281, 317, 341] extra_in_computed=[]",
    ])
    rc, out, _ = run(capsys, "landau", "residues", "--limit", "100000")
    assert (rc, out.splitlines()[1:]) == (2, [
        "missing_from_computed=[3] extra_in_computed=[101]",
        "FINDING: computed residues escape the golden set",
    ])
    rc, out, _ = run(capsys, "germain", "--limit", "1000000",
                     "--format", "json")
    doc = json.loads(out)
    assert (rc, sorted(doc)) == (2, ["clean", "computed", "diffs", "limit"])
    assert doc["clean"] is False
    assert [(d["golden_name"], d["duplicates_in_golden"],
             d["missing_from_computed"], d["extra_in_computed"])
            for d in doc["diffs"]] == [
        ("germain_v1.txt", ["47"], ["9", "187", "191"], ["23"]),
        ("germain_v2.txt", ["11", "23"], ["2", "187", "191"], ["359"]),
    ]
    rc, out, _ = run(capsys, "landau", "residues", "--limit", "100000",
                     "--format", "json")
    doc = json.loads(out)
    assert (rc, sorted(doc)) == (2, [
        "computed", "extra_in_computed", "golden", "is_subset", "limit",
        "missing_from_computed"])
    assert (doc["missing_from_computed"], doc["extra_in_computed"],
            doc["is_subset"]) == (["3"], ["101"], False)
    assert doc["golden"].count("17") == 2  # the list's repeat is kept


def test_classify(capsys):
    rc, out, _ = run(capsys, "classify", "--value", "1129")
    assert rc == 0
    assert out.strip() == "value=1129 ova=49 frequency=3 class=InB"


def test_classify_rejects_multiples_of_360(capsys):
    rc, _, err = run(capsys, "classify", "--value", "720")
    assert rc == 1
    assert "error" in err


def test_inverse(capsys):
    rc, out, _ = run(capsys, "inverse", "--ova", "43")
    assert rc == 0
    assert "inverse(43) = 67" in out
    rc, _, err = run(capsys, "inverse", "--ova", "4")
    assert rc == 1


def test_sieve_formats(capsys):
    rc, out, _ = run(capsys, "sieve", "--limit", "30")
    assert rc == 0
    assert out.split() == "2 3 5 7 11 13 17 19 23 29".split()
    rc, out, _ = run(capsys, "sieve", "--limit", "30", "--format", "csv")
    assert out.strip() == "2,3,5,7,11,13,17,19,23,29"
    rc, out, _ = run(capsys, "sieve", "--limit", "30", "--format", "json")
    assert json.loads(out)["count"] == "10"
    for fmt in ("plain", "csv"):
        assert run(capsys, "sieve", "--limit", "1", "--format", fmt) == (0, "", "")


def test_emit_chunks_write_the_same_bytes(capsys, monkeypatch, tmp_path):
    from ova360 import cli, render

    argvs = [("sieve", "--limit", "30"), ("sieve", "--limit", "1"),
             ("sieve", "--limit", "2"), ("genfunc", "--family", "twin",
                                         "--count", "5"),
             ("dirichlet", "--x", "1000", "--all"),
             ("landau", "enumerate", "--limit", "700"),
             ("landau", "enumerate", "--limit", "4")]
    cases = [(*argv, "--format", fmt) for argv in argvs for fmt in ("plain", "csv")]
    cases += [("sieve", "--limit", "30", "--format", "json"),
              ("sieve", "--limit", "1", "--format", "json"),
              ("landau", "enumerate", "--limit", "700", "--format", "json")]
    witness = tmp_path / "w.csv"
    scan = ("goldbach", "scan", "--limit", "100", "--emit-witnesses", str(witness))

    def outputs():
        return [run(capsys, *argv) for argv in cases], run(capsys, *scan), \
            witness.read_bytes()

    want = outputs()
    lines = want[0][0][1].splitlines(keepends=True)
    assert lines[-1] == "29\n" and len(lines) == 10
    assert want[2].count(b"\n") == 49
    write_sizes = (1, 7, render.WRITE_CHARS)
    for chunk in (1, 2, 3, 9, 10, 11):
        for write_chars in write_sizes:
            monkeypatch.setattr(render, "EMIT_CHUNK", chunk)
            monkeypatch.setattr(render, "WRITE_CHARS", write_chars)
            assert outputs() == want, (chunk, write_chars)
    # the kernel's bytes parts are written part by part, after the lines
    # gathered before them: a csv line is never joined into one str
    primes = primality.sieve_primes(1000)  # 168 primes
    monkeypatch.setattr(render, "EMIT_CHUNK", 10)
    for write_chars in write_sizes:
        monkeypatch.setattr(render, "WRITE_CHARS", write_chars)
        writes = _Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        cli._emit("csv", None, (), render.joined(primes, ",", "\n"))
        cli._emit("plain", None, ["a", "b", b"cd\n", "e"])
        csv_line = ",".join(str(p) for p in primes) + "\n"
        assert b"".join(writes.texts) == (csv_line + "a\nb\ncd\ne\n").encode()
        # the csv line's parts come before the first write that ends a line
        k = next(i for i, t in enumerate(writes.texts) if t.endswith(b"\n"))
        assert k > 1 and max(map(len, writes.texts[:k + 1])) <= 10 * len("997,")
        assert b"cd\n" in writes.texts[k + 1:]  # a bytes item is one write


class _Writes:
    """A stdout that is its own binary buffer and keeps each write."""
    encoding, errors = "utf-8", "strict"

    def __init__(self):
        self.texts = []
        self.buffer = self

    def flush(self):
        pass

    def write(self, data):
        self.texts.append(bytes(data))


def test_emit_writes_hold_items_up_to_write_chars(monkeypatch):
    from ova360 import cli, render

    primes = primality.sieve_primes(10**5)  # 9592 primes
    monkeypatch.setattr(render, "EMIT_CHUNK", 1000)  # items of 1000 lines
    parts = [bytes(part) for part in render.int_text([primes], ["\n"])]
    assert len(parts) == 10
    # str items of "\n"-joined lines, each without its last newline
    items = [part.decode()[:-1] for part in parts]
    first = len(items[0]) + 1  # the first item's text with its newline
    for write_chars in (1, first, first + 1, 10**4, 10**6):
        monkeypatch.setattr(render, "WRITE_CHARS", write_chars)
        writes = _Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        cli._emit("plain", None, iter(items))
        # each write is whole items, taken until their text, newlines
        # included, reaches write_chars; only the last write falls short
        rest = iter(items)
        for n, text in enumerate(writes.texts, 1):
            taken = [next(rest)]
            while sum(len(i) + 1 for i in taken) < len(text):
                taken.append(next(rest))
            assert "".join(i + "\n" for i in taken).encode() == text, write_chars
            assert len(text) - len(taken[-1]) - 1 < write_chars, write_chars
            assert len(text) >= write_chars or n == len(writes.texts), write_chars
        assert next(rest, None) is None, write_chars
        # the kernel's bytes parts hold their newlines: one write each
        writes = _Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        cli._emit("plain", None, render.int_text([primes], ["\n"]))
        assert writes.texts == parts, write_chars


def test_interval(capsys):
    rc, out, _ = run(capsys, "interval", "--n", "5")
    assert rc == 0
    assert "n=5 low=722 high=726" in out
    rc, out, _ = run(capsys, "interval", "--n", "5", "--verify")
    assert rc == 0
    assert "verified composite" in out
    rc, _, err = run(capsys, "interval", "--n", "41")
    assert rc == 1


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_interval_finding_is_rendered_in_the_format(capsys, monkeypatch, fmt):
    # a prime member would disprove the factorial interval; no real n
    # reaches it, so it is injected
    monkeypatch.setattr(primality, "is_prime_big", lambda n: True)
    rc, out, err = run(capsys, "interval", "--n", "5", "--verify",
                       "--format", fmt)
    finding = "interval member 722 is prime"
    want = (json.dumps({"finding": finding}, indent=2) + "\n"
            if fmt == "json" else f"FINDING: {finding}\n")
    assert (rc, out, err) == (2, want, "")


def test_germain_reports_finding(capsys):
    rc, out, _ = run(capsys, "germain", "--limit", "1000000")
    assert rc == 2
    assert "MISMATCH" in out
    assert "missing_from_computed=" in out


def test_genfunc(capsys):
    rc, out, _ = run(capsys, "genfunc", "--family", "particular",
                     "--count", "5")
    assert rc == 0
    assert out.split() == ["7", "23", "37", "53", "67"]
    rc, out, _ = run(capsys, "genfunc", "--family", "twin", "--count", "3",
                     "--format", "csv")
    assert out.strip() == "11,13,17"


def test_goldbach_scan(capsys):
    rc, out, _ = run(capsys, "goldbach", "scan", "--limit", "100")
    assert rc == 0
    assert "checked=48 max_smallest_p=19 at n=98 failures=0" in out
    assert "four-odd-primes witness: 100 = " in out


def test_goldbach_scan_json(capsys):
    rc, out, _ = run(capsys, "goldbach", "scan", "--limit", "100",
                     "--format", "json")
    doc = json.loads(out)
    assert doc["checked"] == "48"
    assert doc["max_smallest_p"] == "19"
    assert doc["failures"] == []


def test_goldbach_scan_failure_exits_2(capsys, tmp_path,
                                       bitmap_without_three):
    rc, out, _ = run(capsys, "goldbach", "scan", "--limit", "100")
    assert rc == 2
    failures = [line for line in out.splitlines()
                if line.startswith("FAILURES: ")]
    assert len(failures) == 1
    assert 6 in json.loads(failures[0].removeprefix("FAILURES: "))
    # a witness file changes nothing in the report; it has no row for
    # a failed n
    path = tmp_path / "w.csv"
    assert run(capsys, "goldbach", "scan", "--limit", "100",
               "--emit-witnesses", str(path)) == (rc, out, "")
    rows = path.read_text().splitlines()
    assert rows[0] == "n,p,q"
    assert not {6, 8} & {int(row.split(",")[0]) for row in rows[1:]}
    rc, out, _ = run(capsys, "goldbach", "scan", "--limit", "100",
                     "--emit-witnesses", str(path), "--format", "json")
    assert rc == 2
    assert json.loads(out)["failures"][:2] == ["6", "8"]


def test_goldbach_witness_file(capsys, tmp_path):
    path = tmp_path / "w.csv"
    rc, _, _ = run(capsys, "goldbach", "scan", "--limit", "100",
                   "--emit-witnesses", str(path))
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,q"
    assert len(lines) == 49
    for row in lines[1:]:
        n, p, q = map(int, row.split(","))
        assert n == p + q


@pytest.mark.parametrize("where", ["missing_dir/w.csv", "."])
def test_unopenable_witness_path_is_an_error(capsys, monkeypatch, tmp_path, where):
    # a missing directory or a directory: one error line, before any scan
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the witness file was opened")

    monkeypatch.setattr(goldbach, "scan", no_scan)
    path = tmp_path / where
    rc, out, err = run(capsys, "goldbach", "scan", "--limit", "100",
                       "--emit-witnesses", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("error: cannot open --emit-witnesses ")
    assert err.count("\n") == 1


def test_witness_file_bound_exits_1_before_the_file(capsys, monkeypatch, tmp_path):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the witness file bound")

    monkeypatch.setattr(goldbach, "scan", no_scan)
    path = tmp_path / "w.csv"
    limit = goldbach.MAX_WITNESS_LIMIT + 2
    rc, out, err = run(capsys, "goldbach", "scan", "--limit", str(limit),
                       "--emit-witnesses", str(path))
    assert (rc, out) == (1, "")
    assert err == (f"error: limit {limit} exceeds witness file bound "
                   f"{goldbach.MAX_WITNESS_LIMIT}\n")
    assert not path.exists()


def test_goldbach_construct(capsys):
    rc, out, _ = run(capsys, "goldbach", "construct", "--n", "20")
    assert rc == 0
    assert out.strip() == "n=20 rho_f=17 f=1 k=4 half_parity=EvenHalf"


def test_goldbach_combine_hits(capsys):
    rc, out, _ = run(capsys, "goldbach", "combine", "--p1", "5",
                     "--p2", "7")
    assert rc == 0
    assert "hits=" in out and "FINDING" not in out


def test_goldbach_combine_zero_hit_finding(capsys):
    rc, out, _ = run(capsys, "goldbach", "combine",
                     "--p1", "1919881", "--p2", "8440231")
    assert rc == 2
    assert "FINDING" in out
    assert "hits=[]" in out


@pytest.mark.parametrize("argv", [
    ("goldbach", "combine", "--p1", str(10**4000 + 1), "--p2", "7"),
    ("mersenne", "classify", "--p", str(10**4000 + 1)),
])
def test_a_prime_past_the_size_bound_exits_1_with_one_short_line(capsys, argv):
    # the primality core checks the size before any round, and names the
    # size, not the 4001-digit number
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1 and len(err) < 100, err
    assert "13288 bits" in err


def test_mersenne_scan_bound_exits_1_before_any_test(capsys, monkeypatch):
    def no_test(p):
        raise AssertionError("tested past the exponent scan bound")

    monkeypatch.setattr(mersenne, "lucas_lehmer", no_test)
    past = mersenne.MAX_SCAN_EXPONENT + 1
    rc, out, err = run(capsys, "mersenne", "scan", "--max", str(past))
    assert (rc, out) == (1, "")
    assert err == (f"error: max_p {past} exceeds exponent scan bound "
                   f"{mersenne.MAX_SCAN_EXPONENT}\n")


def test_mersenne_classify(capsys):
    rc, out, _ = run(capsys, "mersenne", "classify", "--p", "13")
    assert rc == 0
    assert out.strip() == "p=13 residue=271 class=Class271 p_mod_12=1"


def test_mersenne_filter(capsys):
    rc, out, _ = run(capsys, "mersenne", "filter")
    assert rc == 0
    assert "survivors=[3, 7, 31, 127, 247, 271]" in out


def test_mersenne_scan(capsys):
    rc, out, _ = run(capsys, "mersenne", "scan", "--max", "130")
    assert rc == 0
    assert "exponents=[2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127]" in out


def test_mersenne_ll(capsys):
    rc, out, _ = run(capsys, "mersenne", "ll", "--p", "7")
    assert rc == 0 and "prime" in out
    rc, out, _ = run(capsys, "mersenne", "ll", "--p", "11")
    assert rc == 0 and "composite" in out
    rc, _, err = run(capsys, "mersenne", "ll", "--p", "2")
    assert rc == 1


def test_mersenne_constant(capsys):
    rc, out, _ = run(capsys, "mersenne", "constant", "--terms", "2",
                     "--digits", "10")
    assert rc == 0
    assert out.strip() == "0.4761904761"
    rc, out, _ = run(capsys, "mersenne", "constant", "--terms", "2",
                     "--digits", "10", "--format", "json")
    assert json.loads(out)["exact"] == "10/21"


def test_mersenne_kseq(capsys):
    rc, out, _ = run(capsys, "mersenne", "kseq", "--class", "31",
                     "--from", "1", "--to", "3")
    assert rc == 0
    assert out.splitlines() == [
        "index=1 exponent=5 K=0",
        "index=2 exponent=17 K=364",
        "index=3 exponent=29 K=1491308",
    ]
    rc, out, _ = run(capsys, "mersenne", "kseq", "--class", "Class127",
                     "--from", "1", "--to", "2", "--format", "csv")
    assert out.splitlines()[0] == "index,exponent,K"
    rc, _, err = run(capsys, "mersenne", "kseq", "--class", "31",
                     "--from", "3", "--to", "1")
    assert rc == 1
    rc, _, err = run(capsys, "mersenne", "kseq", "--class", "99",
                     "--from", "1", "--to", "2")
    assert rc == 1 and "unknown Mersenne class '99'" in err


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("klass", ["31", "127", "247", "271"])
def test_mersenne_kseq_renders_at_index_bound(capsys, klass, fmt):
    # K at the bound has over 7000 digits, past Python's default
    # 4300-digit int -> str limit
    from ova360.mersenne import MAX_KSEQ_INDEX, k_sequence

    top = str(MAX_KSEQ_INDEX)
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "mersenne", "kseq", "--class", klass,
                       "--from", top, "--to", top, "--format", fmt)
    assert (rc, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    entry = k_sequence(klass, [MAX_KSEQ_INDEX])[0]
    if fmt == "json":
        k_text = json.loads(out)["entries"][0]["K"]
    else:
        k_text = out.split()[-1].split("=")[-1].split(",")[-1]
    sys.set_int_max_str_digits(0)
    try:
        assert int(k_text) == entry.K
    finally:
        sys.set_int_max_str_digits(limit)


def test_landau_residues_subset(capsys):
    rc, out, _ = run(capsys, "landau", "residues", "--limit", "2000")
    assert rc == 0
    assert "extra_in_computed=[]" in out


def test_landau_family(capsys):
    rc, out, _ = run(capsys, "landau", "family", "--ova", "161",
                     "--alpha", "0..3")
    assert rc == 0
    lines = out.splitlines()
    assert "A alpha=0 k=40 n=0 frequency=4 value=1601 prime" in lines
    rc, out, _ = run(capsys, "landau", "family", "--ova", "161",
                     "--alpha", "1", "--format", "csv")
    assert out.splitlines()[0] == "label,alpha,k,n,frequency,value,is_prime,skipped"
    rc, _, err = run(capsys, "landau", "family", "--ova", "7")
    assert rc == 1


@pytest.mark.parametrize("alpha, first", [
    ("-5..0", "A alpha=-5 "), ("-5..-1", "A alpha=-5 "), ("-3", "A alpha=-3 ")])
def test_landau_family_negative_alpha(capsys, alpha, first):
    rc, out, _ = run(capsys, "landau", "family", "--ova", "37", "--alpha", alpha)
    assert rc == 0
    assert out.startswith(first)
    assert run(capsys, "landau", "family", "--ova", "37",
               f"--alpha={alpha}") == (rc, out, "")
    lo, _, hi = alpha.partition("..")
    alphas = range(int(lo), int(hi or lo) + 1)
    assert len(out.splitlines()) == 5 * len(alphas)  # five families for 37


@pytest.mark.parametrize("alpha", ["x", "3..x", "3..", "-3..x", "-1..-",
                                   "5..3", "-1..-3"])
def test_landau_family_malformed_alpha_exits_1(capsys, alpha):
    rc, out, err = run(capsys, "landau", "family", "--ova", "161",
                       "--alpha", alpha)
    assert (rc, out) == (1, "")
    assert err == ("error: alpha must be an integer or a range a..b, "
                   f"got {alpha!r}\n")


def test_landau_family_alpha_bound_exits_1(capsys, monkeypatch):
    from ova360 import landau

    def no_test(n):
        raise AssertionError("tested past the alpha bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    rc, out, err = run(capsys, "landau", "family", "--ova", "161", "--alpha",
                       f"1..{landau.MAX_FAMILY_ALPHAS + 1}")
    assert (rc, out) == (1, "")
    assert err == (f"error: {landau.MAX_FAMILY_ALPHAS + 1} alpha values "
                   f"exceed bound {landau.MAX_FAMILY_ALPHAS}\n")


@pytest.mark.parametrize("alpha", ["10000001", "-10000001..-9999999"])
def test_landau_family_alpha_magnitude_bound_exits_1(capsys, monkeypatch, alpha):
    from ova360 import landau

    def no_test(n):
        raise AssertionError("tested past the alpha bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    rc, out, err = run(capsys, "landau", "family", "--ova", "161", "--alpha", alpha)
    assert (rc, out) == (1, "")
    assert err == (f"error: |alpha| {landau.MAX_FAMILY_ALPHA + 1} exceeds "
                   f"bound {landau.MAX_FAMILY_ALPHA}\n")


def test_genfunc_count_bound_exits_1(capsys, monkeypatch):
    from ova360 import ova

    def no_family(family):
        raise AssertionError("computed past the count bound")

    monkeypatch.setattr(ova, "_coerce_family", no_family)
    rc, out, err = run(capsys, "genfunc", "--family", "twin", "--count",
                       str(ova.MAX_GENFUNC_COUNT + 1))
    assert (rc, out) == (1, "")
    assert err == (f"error: count {ova.MAX_GENFUNC_COUNT + 1} exceeds bound "
                   f"{ova.MAX_GENFUNC_COUNT}\n")


def test_landau_enumerate(capsys):
    rc, out, _ = run(capsys, "landau", "enumerate", "--limit", "700")
    assert rc == 0
    assert out.split() == "2 5 17 37 101 197 257 401 577 677".split()


def test_matrix_bits(capsys):
    rc, out, _ = run(capsys, "matrix", "--ova", "7", "--k", "10")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "1111000101"


def test_matrix_csv_and_json(capsys):
    rc, out, _ = run(capsys, "matrix", "--ova", "7", "--k", "3",
                     "--format", "csv")
    assert out.splitlines()[0] == "1,1,1"
    rc, out, _ = run(capsys, "matrix", "--ova", "7", "--k", "10",
                     "--format", "json")
    doc = json.loads(out)
    assert doc["stats"]["determinant"] == "-6"
    assert doc["bits"][0] == "1111000101"


def test_matrix_rejects_bad_residue(capsys):
    rc, _, err = run(capsys, "matrix", "--ova", "4", "--k", "3")
    assert rc == 1


def test_density(capsys):
    rc, out, _ = run(capsys, "density", "--ova", "7", "--rotations", "100")
    assert rc == 0
    assert out.strip() == "41/100"
    rc, out, _ = run(capsys, "density", "--ova", "353",
                     "--rotations", "100", "--format", "json")
    assert json.loads(out)["density"] == "39/100"


def test_density_rotations_bound_exits_1(capsys, monkeypatch):
    from ova360 import matrix

    def no_sieve(first, step, count):
        raise AssertionError("sieved past the rotations bound")

    monkeypatch.setattr(matrix, "_sieve_segments", no_sieve)
    rc, out, err = run(capsys, "density", "--ova", "7", "--rotations",
                       str(matrix.MAX_DENSITY_ROTATIONS + 1))
    assert (rc, out) == (1, "")
    assert "exceeds bound" in err


def test_matrix_start_bound_exits_1(capsys, monkeypatch):
    from ova360 import matrix

    def no_test(n):
        raise AssertionError("tested past the start bound")

    monkeypatch.setattr(matrix, "is_prime_big", no_test)
    rc, out, err = run(capsys, "matrix", "--ova", "7", "--k", "3", "--start",
                       str(matrix.MAX_MATRIX_START + 1))
    assert (rc, out) == (1, "")
    assert "exceeds bound" in err


def test_matrix_k_bound_exits_1(capsys, monkeypatch):
    from ova360 import matrix

    def no_test(n):
        raise AssertionError("tested past the k bound")

    monkeypatch.setattr(matrix, "is_prime_big", no_test)
    rc, out, err = run(capsys, "matrix", "--ova", "7", "--k",
                       str(matrix.MAX_MATRIX_K + 1))
    assert (rc, out) == (1, "")
    assert "exceeds bound" in err


def test_mersenne_constant_json_renders_at_terms_bound(capsys):
    # the exact sum at the bound has 146977 digits, past Python's default
    # 4300-digit int -> str limit
    from ova360 import mersenne

    top = str(mersenne.MAX_SUM_TERMS)
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "mersenne", "constant", "--terms", top,
                       "--digits", "20", "--format", "json")
    assert (rc, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    num, den = doc["exact"].split("/")
    assert len(den) == mersenne.SUM_MAX_DIGITS
    sys.set_int_max_str_digits(0)
    try:
        exact = Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(limit)
    assert exact == mersenne.inverse_sum_fraction(mersenne.MAX_SUM_TERMS)
    assert doc["decimal"] == mersenne.inverse_sum(mersenne.MAX_SUM_TERMS, 20)


def test_mersenne_constant_terms_bound_exits_1(capsys, monkeypatch):
    from ova360 import mersenne

    def no_sum(num_terms):
        raise AssertionError("summed past the terms bound")

    monkeypatch.setattr(mersenne, "inverse_sum_fraction", no_sum)
    rc, out, err = run(capsys, "mersenne", "constant", "--terms",
                       str(mersenne.MAX_SUM_TERMS + 1), "--digits", "10")
    assert (rc, out) == (1, "")
    assert "exceeds bound" in err
    for terms, digits, line in (
            (0, 10, "num_terms must be >= 1, got 0"),
            (52, 10, "num_terms 52 exceeds bound 30"),
            (2, 0, "precision_digits must be >= 1, got 0"),
            (2, 201, "precision_digits 201 exceeds bound 200")):
        assert run(capsys, "mersenne", "constant", "--terms", str(terms),
                   "--digits", str(digits)) == (1, "", f"error: {line}\n")


def test_mersenne_constant_terms_past_a_short_golden_list(capsys, monkeypatch,
                                                         tmp_path):
    from ova360 import mersenne

    (tmp_path / "mersenne_exponents.txt").write_text("2\n3\n5\n")
    monkeypatch.setenv("OVA360_GOLDEN", str(tmp_path))
    caches = (mersenne.known_exponents, mersenne.inverse_sum_fraction)
    for f in caches:
        f.cache_clear()
    try:
        assert run(capsys, "mersenne", "constant", "--terms", "3",
                   "--digits", "10") == (0, "0.5084485407\n", "")
        assert run(capsys, "mersenne", "constant", "--terms", "4",
                   "--digits", "10") == (
            1, "", "error: mersenne_exponents.txt lists 3 exponents, "
                   "fewer than num_terms 4\n")
    finally:
        for f in caches:
            f.cache_clear()


@pytest.mark.parametrize("argv", [
    ("sieve", "--limit", "MAX_PRIME_LIST_LIMIT"),
    ("germain", "--limit", "MAX_STREAM_LIMIT"),
    ("dirichlet", "--x", "MAX_STREAM_LIMIT", "--all"),
    ("dirichlet", "--x", "MAX_STREAM_LIMIT", "--ova", "7"),
])
def test_sieve_bound_exits_1_before_sieving(capsys, monkeypatch, argv):
    from ova360 import matrix, primality

    def no_sieve(*args):
        raise AssertionError("sieved past the bound")

    monkeypatch.setattr(primality, "_sieve_segments", no_sieve)
    monkeypatch.setattr(matrix, "_sieve_segments", no_sieve)
    bound = getattr(primality, argv[2])
    rc, out, err = run(capsys, *argv[:2], str(bound + 1), *argv[3:])
    assert (rc, out) == (1, "")
    assert "exceeds" in err and str(bound) in err


def test_landau_enumerate_limit_bound_exits_1(capsys, monkeypatch):
    from ova360 import landau

    def no_test(n):
        raise AssertionError("tested past the limit bound")

    monkeypatch.setattr(landau, "is_prime_big", no_test)
    rc, out, err = run(capsys, "landau", "enumerate", "--limit",
                       str(landau.MAX_LANDAU_LIMIT + 1))
    assert (rc, out) == (1, "")
    assert "exceeds bound" in err


def test_dirichlet_single(capsys):
    rc, out, _ = run(capsys, "dirichlet", "--x", "10000", "--ova", "13")
    assert rc == 0
    assert "ova=13 count=" in out and "ratio=" in out


def test_dirichlet_singleton(capsys):
    rc, out, _ = run(capsys, "dirichlet", "--x", "10000", "--ova", "2")
    assert rc == 0
    assert "ova=2 count=1 (singleton class, ratio omitted)" in out


def test_dirichlet_validation(capsys):
    rc, _, err = run(capsys, "dirichlet", "--x", "999", "--ova", "7")
    assert rc == 1
    rc, _, err = run(capsys, "dirichlet", "--x", "10000", "--ova", "4")
    assert rc == 1
    rc, _, err = run(capsys, "dirichlet", "--x", "10000")
    assert rc == 1  # requires --ova or --all


def test_dirichlet_all(capsys):
    rc, out, _ = run(capsys, "dirichlet", "--x", "10000", "--all")
    assert rc == 0
    assert "mean_ratio=" in out
    rc, out, _ = run(capsys, "dirichlet", "--x", "10000", "--all",
                     "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "ova,count,ratio"
    assert len(lines) == 100  # header + 96 classes + 3 singletons
    rc, first, _ = run(capsys, "dirichlet", "--x", "10000", "--all",
                       "--format", "json")
    rc, second, _ = run(capsys, "dirichlet", "--x", "10000", "--all",
                        "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["prime_count"] == "1229"


@pytest.mark.parametrize("how", [("--all",), ("--ova", "13"), ("--ova", "2")])
def test_dirichlet_counts_the_classes_once_per_call(capsys, monkeypatch, how):
    # every report, and --all's prime_count, reads one residue_counts(x)
    from ova360 import matrix

    calls = []
    count = matrix.residue_counts

    def spy(x):
        calls.append(x)
        return count(x)

    monkeypatch.setattr(matrix, "residue_counts", spy)
    for fmt in ("plain", "csv", "json"):
        calls.clear()
        rc, _, _ = run(capsys, "dirichlet", "--x", "10000", *how,
                       "--format", fmt)
        assert (rc, calls) == (0, [10000]), fmt


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ova360.cli", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ova360 ")


def _stdout_bytes(monkeypatch, steps) -> bytes:
    """The bytes that steps write, in turn, to a buffered text stdout: a
    str is written to sys.stdout, an argv is dispatched."""
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    for step in steps:
        if isinstance(step, str):
            stream.write(step)
        else:
            dispatch(list(step))
    stream.flush()
    return raw.getvalue()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_text_written_before_emit_comes_first(monkeypatch, fmt):
    # the emitter writes to the binary buffer under sys.stdout, so it
    # must first flush the text that the text layer still holds
    sieve = ("sieve", "--limit", "30", "--format", fmt)
    interval = ("interval", "--n", "5", "--format", fmt)
    alone = [_stdout_bytes(monkeypatch, [argv]) for argv in (sieve, interval)]
    assert all(alone)
    got = _stdout_bytes(monkeypatch, ["é1\n", sieve, "é2", interval, "é3"])
    assert got == b"".join(["é1\n".encode(), alone[0], "é2".encode(),
                            alone[1], "é3".encode()])


@pytest.mark.parametrize("argv", [
    *[("sieve", "--limit", "100000", "--format", fmt)
      for fmt in ("plain", "csv", "json")],
    ("goldbach", "scan", "--limit", "20000", "--emit-witnesses", "{file}"),
])
def test_child_interpreter_writes_the_in_process_bytes(capsys, tmp_path, argv):
    # stdout a pipe: the bytes still in the binary buffer at exit must
    # come out, after the text layer's
    def with_file(name):
        return [str(tmp_path / name) if a == "{file}" else a for a in argv]

    proc = subprocess.run([sys.executable, "-m", "ova360.cli",
                           *with_file("child.csv")],
                          capture_output=True, env=_child_env())
    rc, out, err = run(capsys, *with_file("own.csv"))
    assert out
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        rc, out.encode(), err.encode())
    if "{file}" in argv:
        assert (tmp_path / "child.csv").read_bytes() == \
            (tmp_path / "own.csv").read_bytes()


_LANDAU_FAMILY_JSON = ("landau", "family", "--ova", "37", "--alpha", "0..9999",
                       "--format", "json")


@pytest.mark.parametrize("argv, want", [
    (("sieve", "--limit", "1000000", "--format", "plain"), b"2\n"),
    (("sieve", "--limit", "1000000", "--format", "json"), b"{\n"),
    # 5 x 10^4 rows of JSON pieces, written between the writer's flushes
    (_LANDAU_FAMILY_JSON, b"{\n"),
], ids=["plain", "json", "landau_family_json"])
def test_closed_stdout_pipe_ends_quietly(argv, want):
    # `sieve ... | head -1`: the reader takes one line and closes the pipe
    # long before the 78498 primes are written
    proc = subprocess.Popen([sys.executable, "-m", "ova360.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (first, proc.wait(timeout=60), err) == (want, 0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["sieve", "--limit", "100000"],
    ["--version"],
    ["interval", "--n", "5", "--verify"],  # the finding branch
    ["goldbach", "scan", "--limit", "100000", "--emit-witnesses", "/dev/full"],
])
def test_failed_write_exits_1_with_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC: stdout's for the first
    # three, the witness file's for the last. The interval's finding is
    # injected, as in test_interval_finding_is_rendered_in_the_format.
    inject = "primality.is_prime_big = lambda n: True; " * (argv[0] == "interval")
    code = f"from ova360 import cli, primality; {inject}cli.main()"
    with open("/dev/full" if "/dev/full" not in argv else os.devnull, "wb") as out:
        proc = subprocess.run([sys.executable, "-c", code, *argv], stdout=out,
                              stderr=subprocess.PIPE, env=_child_env())
    err = proc.stderr.decode()
    assert proc.returncode == 1 and "Traceback" not in err, err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write"), err


def test_stdout_and_witness_file_are_written_by_render_write(capsys, monkeypatch,
                                                             tmp_path):
    # every byte of stdout and of the witness file passes through one writer
    from ova360 import render

    write, seen = render.write, []

    def spy(items, stream):
        items = list(items)
        assert all(isinstance(i, (str, bytes, bytearray)) for i in items), {
            type(i) for i in items}
        seen.extend(i.encode(stream.encoding) if isinstance(i, str) else bytes(i)
                    for i in items)
        write(items, stream)

    monkeypatch.setattr(render, "write", spy)
    witness = tmp_path / "w.csv"
    cases = [["goldbach", "scan", "--limit", "20000", "--emit-witnesses",
              str(witness)]]
    cases += [["sieve", "--limit", "1000", "--format", fmt]
              for fmt in ("plain", "csv", "json")]
    cases.append(list(_LANDAU_FAMILY_JSON))  # JSON pieces in many writes
    for argv in cases:
        seen.clear()
        rc, out, err = run(capsys, *argv)
        written = witness.read_bytes() if "--emit-witnesses" in argv else b""
        assert (rc, err) == (0, "") and out, argv
        assert b"".join(seen) == written + out.encode(), argv


# The benchmark's fixed-argument operations (perfbench/workloads.py):
# id, argv with "{file}" for the witness file, exit code. A None argv
# is the call goldbach.interval_sum_check(800).
_RECORDED_OPS = [
    ("goldbach_scan_1e7", ["goldbach", "scan", "--limit", "10000000"], 0),
    ("dirichlet_all_1e8", ["dirichlet", "--x", "100000000", "--all"], 0),
    ("germain_1e8", ["germain", "--limit", "100000000"], 2),
    ("landau_enumerate_1e11",
     ["landau", "enumerate", "--limit", "100000000000"], 0),
    ("interval_sum_check_800", None, 0),
    ("mersenne_scan_2300", ["mersenne", "scan", "--max", "2300"], 0),
    ("mersenne_ll_9941", ["mersenne", "ll", "--p", "9941"], 0),
    ("goldbach_scan_witnesses_2e6", ["goldbach", "scan", "--limit", "2000000",
                                     "--emit-witnesses", "{file}"], 0),
    ("sieve_json_1e7",
     ["sieve", "--limit", "10000000", "--format", "json"], 0),
]


@pytest.mark.parametrize("op_id, argv, rc",
                         _RECORDED_OPS, ids=[op[0] for op in _RECORDED_OPS])
def test_benchmark_outputs_match_recorded_digests(capsys, tmp_path,
                                                  op_id, argv, rc):
    # the exit code and the sha256 of stdout and of the witness file
    # that the benchmark records in perfbench/expected.json and checks
    # every operation's output against
    path = Path(__file__).parents[1] / "perfbench" / "expected.json"
    if not path.exists():
        pytest.skip("no recorded digests")
    want = json.loads(path.read_text())["digests"].get(op_id)
    if want is None:
        pytest.skip(f"no recorded digest for {op_id}")
    witness = tmp_path / "witnesses.csv"
    if argv is None:  # rendered as perfbench/child.py renders a call
        from ova360 import goldbach

        report = goldbach.interval_sum_check(800)
        got_rc, out = 0, json.dumps(dataclasses.asdict(report),
                                    sort_keys=True, default=str) + "\n"
    else:
        argv = [str(witness) if a == "{file}" else a for a in argv]
        got_rc, out, _ = run(capsys, *argv)
    file_sha = (hashlib.sha256(witness.read_bytes()).hexdigest()
                if witness.exists() else None)
    assert got_rc == rc
    assert {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "file": file_sha} == want


# The interpreter's peak RSS in kB, as peak_kb.
_READ_PEAK_KB = """
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""

# Runs dispatch(argv[2:]) in-process with stdout going to the file
# argv[1], so that the output it checks is not held in memory, and
# prints the exit code and the interpreter's peak RSS.
_PEAK_RSS_PROBE = """
import json, sys
from contextlib import redirect_stdout
from ova360.cli import dispatch
with open(sys.argv[1], "w") as sink, redirect_stdout(sink):
    rc = dispatch(sys.argv[2:])
""" + _READ_PEAK_KB + """
print(json.dumps({"rc": rc, "peak_kb": peak_kb}))
"""


def _peak_rss(out: Path, argv) -> tuple[int, int]:
    """The exit code and peak RSS in kB of argv run in a fresh
    interpreter, with its stdout in the file out.

    The peak is VmHWM, the high-water mark of the memory the interpreter
    got at exec. getrusage would not do: RUSAGE_CHILDREN holds every
    earlier child's peak, and on Linux RUSAGE_SELF keeps, across fork and
    exec, the forking process's peak (117 MB under pytest against 71 MB
    from a shell for a germain run)."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, str(out), *argv],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["rc"], result["peak_kb"]


_NEEDS_VMHWM = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                  reason="needs the Linux per-process VmHWM")


@_NEEDS_VMHWM
@pytest.mark.parametrize("argv, rc", [
    (("dirichlet", "--x", "1000000000", "--all", "--format", "json"), 0),
    (("germain", "--limit", "1000000000"), 2),
    (_LANDAU_FAMILY_JSON, 0),
])
def test_streamed_verbs_peak_under_100_mb(argv, rc, tmp_path):
    # dirichlet's whole bitmap alone would be 500 MB at 1e9; germain
    # reads the primes to 4096 at any limit; landau family's JSON is
    # written as it is built, not held whole
    out = tmp_path / "out"
    got_rc, peak_kb = _peak_rss(out, argv)
    assert got_rc == rc
    assert peak_kb * 1024 < 100 * 10**6, peak_kb
    if argv[0] == "dirichlet":
        doc = json.loads(out.read_text())
        counts = [int(r["count"]) for r in doc["classes"] + doc["singletons"]]
        assert sum(counts) == int(doc["prime_count"]) == 50847534  # pi(1e9)
    if argv[0] == "landau":  # five families at each of 10^4 alphas
        assert len(json.loads(out.read_text())["rows"]) == 5 * 10**4


@_NEEDS_VMHWM
def test_dirichlet_at_the_stream_bound_peaks_under_50_mb(tmp_path):
    # the class counts walk no line to x: Legendre's phi is 310k nodes at
    # 1e10, taken in chunks, and the products' stream holds one segment
    out = tmp_path / "out"
    rc, peak_kb = _peak_rss(out, ("dirichlet", "--x", "10000000000", "--all",
                                  "--format", "json"))
    assert rc == 0
    assert peak_kb * 1024 < 50 * 10**6, peak_kb
    doc = json.loads(out.read_text())
    counts = [int(r["count"]) for r in doc["classes"] + doc["singletons"]]
    assert sum(counts) == int(doc["prime_count"]) == 455052511  # pi(1e10)


@_NEEDS_VMHWM
def test_import_adds_under_5_mb_to_numpy():
    # every verb pays for the import, so no table is built at import:
    # tables built there took it from 3.7 to 6.0 MB
    probe = ("import numpy\n" + _READ_PEAK_KB + "numpy_kb = peak_kb\n"
             "import ova360.cli\n" + _READ_PEAK_KB + "print(peak_kb - numpy_kb)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 1024 < 5 * 10**6, proc.stdout


@_NEEDS_VMHWM
def test_goldbach_scan_to_1e8_peaks_under_60_mb(tmp_path):
    # the primes stream: one segment, a window of 2^14 odds and one
    # block of 2^18 evens with its peel arrays, about 37 MB in all
    out = tmp_path / "out"
    rc, peak_kb = _peak_rss(out, ("goldbach", "scan", "--limit", "100000000"))
    assert rc == 0
    assert peak_kb * 1024 < 60 * 10**6, peak_kb
    first = out.read_text().splitlines()[0]
    assert first == "checked=49999998 max_smallest_p=1093 at n=60119912 failures=0"


@_NEEDS_VMHWM
def test_interval_sum_check_at_its_bound_peaks_under_100_mb():
    # the windows are checked one block of f at a time, so the peak is
    # the 5 MB prime array and one block, not n/2 windows
    probe = """
from ova360.goldbach import interval_sum_check
r = interval_sum_check(10**7)
""" + _READ_PEAK_KB + """
print(r.pairs_checked, r.empty_windows, r.violations, peak_kb)
"""
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    pairs, empty, violations, peak_kb = proc.stdout.split()
    assert (pairs, empty, violations) == ("46519147839336742", "0", "()")
    assert int(peak_kb) * 1024 < 100 * 10**6, peak_kb


@_NEEDS_VMHWM
def test_symmetric_pair_check_at_its_bound_peaks_under_80_mb():
    # the lower half is copied from the stream (25 MB at 1e8) and the
    # upper half ANDed with it segment by segment: 105 MB when both
    # halves were read from one whole bitmap
    probe = """
from ova360.goldbach import symmetric_pair_check
r = symmetric_pair_check(10**8)
""" + _READ_PEAK_KB + """
print(len(r.k_values), peak_kb)
"""
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    count, peak_kb = proc.stdout.split()
    assert count == "291400"
    assert int(peak_kb) * 1024 < 80 * 10**6, peak_kb


@_NEEDS_VMHWM
def test_sieve_primes_at_its_bound_peaks_under_95_mb():
    # one int64 array (46 MB at 1e8) filled segment by segment: 118 MB
    # when the per-segment parts were joined by a copy
    probe = """
from ova360.primality import sieve_primes
p = sieve_primes(10**8)
""" + _READ_PEAK_KB + """
print(p.size, p[-1], peak_kb)
"""
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    count, last, peak_kb = proc.stdout.split()
    assert (count, last) == ("5761455", "99999989")
    assert int(peak_kb) * 1024 < 95 * 10**6, peak_kb


@_NEEDS_VMHWM
def test_sieve_json_streams_its_primes(tmp_path):
    # the JSON array is written part by part as the plain lines are, so
    # at the bound JSON peaks where plain does (166 MB against 125 MB
    # when the array's text was gathered before the write)
    peaks = {}
    tails = {"plain": b"\n99999989\n", "json": b'\n    "99999989"\n  ]\n}\n'}
    for fmt, tail in tails.items():
        out = tmp_path / fmt
        rc, peaks[fmt] = _peak_rss(out, ("sieve", "--limit", "100000000",
                                         "--format", fmt))
        assert rc == 0
        with open(out, "rb") as fh:
            fh.seek(-len(tail), os.SEEK_END)
            assert fh.read() == tail
    assert abs(peaks["json"] - peaks["plain"]) * 1024 <= 5 * 10**6, peaks


@pytest.mark.skipif(shutil.which("ova360") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["ova360", "sets"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "|A|=72" in proc.stdout
