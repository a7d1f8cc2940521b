"""The README's examples run as tests, so README and CLI cannot drift
apart: every line of its CLI block through dispatch() in every format,
and its Python quick tour as a doctest."""

from __future__ import annotations

import doctest
import hashlib
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ova360 import goldbach, landau, matrix, mersenne, ova, primality, render
from ova360.cli import dispatch

README = Path(__file__).parents[1] / "README.md"


def _cli_examples() -> list[list[str]]:
    """argv of each line of the README's block of ova360 calls, without
    the ova360 itself, the comment and any --format."""
    text = README.read_text()
    block = re.search(r"```sh\n(ova360 .*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line.split("#")[0])[1:]
        if "--format" in argv:
            i = argv.index("--format")
            del argv[i:i + 2]
        examples.append(argv)
    return examples


def _formats(argv) -> tuple[str, ...]:
    return ("bits", "csv", "json") if argv[0] == "matrix" else ("plain", "csv", "json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# (example, format) -> (exit code, SHA-256 of stdout, SHA-256 of the
# witness file or None), digests cut to 16 hex digits; recorded from the
# CLI before handlers returned data to one emitter. stderr is empty.
EXPECTED = {
    ("classify --value 1129", "plain"): (0, "dab864250fc6fcfe", None),
    ("classify --value 1129", "csv"): (0, "dab864250fc6fcfe", None),
    ("classify --value 1129", "json"): (0, "a2ade97849ca2137", None),
    ("sets --diff-golden", "plain"): (0, "ee4e40e12b450e87", None),
    ("sets --diff-golden", "csv"): (0, "ee4e40e12b450e87", None),
    ("sets --diff-golden", "json"): (0, "84bcc9124f93820f", None),
    ("inverse --ova 43", "plain"): (0, "630471e152faf8c1", None),
    ("inverse --ova 43", "csv"): (0, "630471e152faf8c1", None),
    ("inverse --ova 43", "json"): (0, "f710ab578e2255b9", None),
    ("sieve --limit 100", "plain"): (0, "258e13d8a5654683", None),
    ("sieve --limit 100", "csv"): (0, "d619ba75753f74f9", None),
    ("sieve --limit 100", "json"): (0, "1447462ca36289f7", None),
    ("interval --n 5 --verify", "plain"): (0, "961ba2d702393f1c", None),
    ("interval --n 5 --verify", "csv"): (0, "961ba2d702393f1c", None),
    ("interval --n 5 --verify", "json"): (0, "51221b7ba8e4768a", None),
    ("genfunc --family twin --count 12", "plain"): (0, "4d4ae4e85a46c459", None),
    ("genfunc --family twin --count 12", "csv"): (0, "ae31f9416eeba8cf", None),
    ("genfunc --family twin --count 12", "json"): (0, "82fa233791f2fab6", None),
    ("germain --limit 10000000", "plain"): (2, "3fb6adc23def2fb2", None),
    ("germain --limit 10000000", "csv"): (2, "3fb6adc23def2fb2", None),
    ("germain --limit 10000000", "json"): (2, "7a29261763d30dd4", None),
    ("goldbach scan --limit 1000000 --emit-witnesses w.csv", "plain"): (0, "4b4d219c16146081", "5fb382f552e77359"),
    ("goldbach scan --limit 1000000 --emit-witnesses w.csv", "csv"): (0, "4b4d219c16146081", "5fb382f552e77359"),
    ("goldbach scan --limit 1000000 --emit-witnesses w.csv", "json"): (0, "c5b62d51ef4156e2", "5fb382f552e77359"),
    ("goldbach construct --n 20", "plain"): (0, "a1e7541c21f95f96", None),
    ("goldbach construct --n 20", "csv"): (0, "a1e7541c21f95f96", None),
    ("goldbach construct --n 20", "json"): (0, "fb403b0aa5675adf", None),
    ("goldbach combine --p1 5 --p2 7", "plain"): (0, "9af090a8fd0cb096", None),
    ("goldbach combine --p1 5 --p2 7", "csv"): (0, "9af090a8fd0cb096", None),
    ("goldbach combine --p1 5 --p2 7", "json"): (0, "c5ef4caf8058ac99", None),
    ("mersenne classify --p 13", "plain"): (0, "39043f8c434b45b5", None),
    ("mersenne classify --p 13", "csv"): (0, "39043f8c434b45b5", None),
    ("mersenne classify --p 13", "json"): (0, "11a8d6f202932f27", None),
    ("mersenne filter", "plain"): (0, "7d27a5651605ec3a", None),
    ("mersenne filter", "csv"): (0, "7d27a5651605ec3a", None),
    ("mersenne filter", "json"): (0, "55d2e0a036835f76", None),
    ("mersenne scan --max 2300", "plain"): (0, "366bcd13ca330444", None),
    ("mersenne scan --max 2300", "csv"): (0, "366bcd13ca330444", None),
    ("mersenne scan --max 2300", "json"): (0, "d9c6def38cdeb51a", None),
    ("mersenne ll --p 2281", "plain"): (0, "5b63b648fa880333", None),
    ("mersenne ll --p 2281", "csv"): (0, "5b63b648fa880333", None),
    ("mersenne ll --p 2281", "json"): (0, "c71d67fa525dbb53", None),
    ("mersenne kseq --class 31 --from 1 --to 10", "plain"): (0, "a2d236224c5b2ad8", None),
    ("mersenne kseq --class 31 --from 1 --to 10", "csv"): (0, "0460c9019a9586a0", None),
    ("mersenne kseq --class 31 --from 1 --to 10", "json"): (0, "4afe62dacf40a48c", None),
    ("mersenne constant --terms 12 --digits 57", "plain"): (0, "9879bb9ccc9e1607", None),
    ("mersenne constant --terms 12 --digits 57", "csv"): (0, "9879bb9ccc9e1607", None),
    ("mersenne constant --terms 12 --digits 57", "json"): (0, "532e878df2e7f69b", None),
    ("landau residues --limit 100000", "plain"): (0, "2985c40d70efe688", None),
    ("landau residues --limit 100000", "csv"): (0, "2985c40d70efe688", None),
    ("landau residues --limit 100000", "json"): (0, "f4899e4ce6a2afb8", None),
    ("landau family --ova 161 --alpha 0..14", "plain"): (0, "5262d31b369ee9f7", None),
    ("landau family --ova 161 --alpha 0..14", "csv"): (0, "77c9dad065a5ffae", None),
    ("landau family --ova 161 --alpha 0..14", "json"): (0, "7b511ee40cfeeb38", None),
    ("landau enumerate --limit 1700", "plain"): (0, "663cb2835692a837", None),
    ("landau enumerate --limit 1700", "csv"): (0, "0833ad55d24225c2", None),
    ("landau enumerate --limit 1700", "json"): (0, "56e1c0037af0e32d", None),
    ("matrix --ova 7 --k 10", "bits"): (0, "a9f6ff76f231ec69", None),
    ("matrix --ova 7 --k 10", "csv"): (0, "c79251cbe3afd23d", None),
    ("matrix --ova 7 --k 10", "json"): (0, "90d64706cf9374cd", None),
    ("density --ova 7 --rotations 100", "plain"): (0, "cb9271d6029a94f2", None),
    ("density --ova 7 --rotations 100", "csv"): (0, "cb9271d6029a94f2", None),
    ("density --ova 7 --rotations 100", "json"): (0, "6276f8e8f72a36e5", None),
    ("dirichlet --x 100000000 --all", "plain"): (0, "7a0d55684e31b808", None),
    ("dirichlet --x 100000000 --all", "csv"): (0, "9c03124b76846355", None),
    ("dirichlet --x 100000000 --all", "json"): (0, "f79e8164710c48d5", None),
}


def test_every_readme_example_is_pinned():
    cases = {(" ".join(a), f) for a in _cli_examples() for f in _formats(a)}
    assert cases == set(EXPECTED)


@pytest.mark.parametrize("example, fmt", sorted(EXPECTED))
def test_readme_cli_example(capsys, tmp_path, example, fmt):
    witness = tmp_path / "w.csv"
    argv = [str(witness) if a == "w.csv" else a for a in shlex.split(example)]
    rc = dispatch([*argv, "--format", fmt])
    out = capsys.readouterr()
    file_sha = _sha(witness.read_bytes()) if witness.exists() else None
    assert (rc, _sha(out.out.encode()), file_sha) == EXPECTED[example, fmt]
    assert out.err == ""


def test_int_text_receives_only_kernel_input(capsys, tmp_path, monkeypatch):
    # render.int_text has one path, the numpy kernel: whatever the CLI
    # sends it must be non-negative int64 columns and NUL-free separators
    # (the kernel's NULs mark leading zeros), in every README example and
    # format, the witness file at 2e6, and the shortest prime lists
    kernel, sent = render.int_text, []

    def spy(cols, seps):
        for c in cols:
            assert isinstance(c, np.ndarray) and c.dtype == np.int64
            assert c.ndim == 1 and len(c) == len(cols[0])
            assert not (c.size and c.min() < 0)
        assert len(seps) == len(cols) and not any("\0" in s for s in seps)
        sent.append(len(cols[0]))
        return kernel(cols, seps)

    monkeypatch.setattr(render, "int_text", spy)
    witness = str(tmp_path / "w.csv")
    runs = [(argv, fmt) for argv in _cli_examples() for fmt in _formats(argv)]
    runs += [(["goldbach", "scan", "--limit", "2000000", "--emit-witnesses",
               "w.csv"], "plain")]
    runs += [(["sieve", "--limit", top], fmt)
             for top in ("1", "2") for fmt in ("plain", "csv", "json")]
    for argv, fmt in runs:
        argv = [witness if a == "w.csv" else a for a in argv]
        assert dispatch([*argv, "--format", fmt]) in (0, 2), argv
        assert capsys.readouterr().err == ""
    # the witness rows of 2e6 and the lists of sieve, genfunc and landau
    assert sum(sent) > 10**6


@pytest.mark.parametrize("argv, bound, message", [
    (("sieve", "--limit"), primality.MAX_PRIME_LIST_LIMIT,
     "limit {} exceeds prime list bound {}"),
    (("interval", "--n"), primality.MAX_FACTORIAL_N,
     "n {} exceeds factorial bound {}"),
    (("goldbach", "scan", "--limit"), goldbach.MAX_SCAN_LIMIT,
     "limit {} exceeds scan bound {}"),
    (("mersenne", "scan", "--max"), mersenne.MAX_SCAN_EXPONENT,
     "max_p {} exceeds exponent scan bound {}"),
    (("mersenne", "ll", "--p"), mersenne.MAX_LL_EXPONENT,
     "exponent {} exceeds Lucas-Lehmer bound {}"),
    # a 301-digit bound would make a 301-digit test id
    pytest.param(("goldbach", "construct", "--n"), goldbach.MAX_CONSTRUCT_N,
                 "n {} exceeds construction bound {}", id="goldbach-construct"),
    (("goldbach", "scan", "--emit-witnesses", os.devnull, "--limit"),
     goldbach.MAX_WITNESS_LIMIT, "limit {} exceeds witness file bound {}"),
    (("genfunc", "--family", "full", "--count"), ova.MAX_GENFUNC_COUNT,
     "count {} exceeds bound {}"),
    (("germain", "--limit"), primality.MAX_STREAM_LIMIT,
     "limit {} exceeds sieve bound {}"),
    (("matrix", "--ova", "7", "--k"), matrix.MAX_MATRIX_K, "k {} exceeds bound {}"),
    pytest.param(("matrix", "--ova", "7", "--k", "1", "--start"),
                 matrix.MAX_MATRIX_START, "start {} exceeds bound {}",
                 id="matrix-start"),
    (("density", "--ova", "7", "--rotations"), matrix.MAX_DENSITY_ROTATIONS,
     "rotations {} exceeds bound {}"),
    (("dirichlet", "--all", "--x"), primality.MAX_STREAM_LIMIT,
     "limit {} exceeds sieve bound {}"),
    (("landau", "enumerate", "--limit"), landau.MAX_LANDAU_LIMIT,
     "limit {} exceeds bound {}"),
    (("landau", "residues", "--limit"), landau.MAX_LANDAU_LIMIT,
     "limit {} exceeds bound {}"),
    (("landau", "family", "--ova", "37", "--alpha"), landau.MAX_FAMILY_ALPHA,
     "|alpha| {} exceeds bound {}"),
    (("mersenne", "kseq", "--class", "31", "--from", "1", "--to"),
     mersenne.MAX_KSEQ_INDEX, "index {} exceeds bound {}"),
    (("mersenne", "constant", "--digits", "10", "--terms"),
     mersenne.MAX_SUM_TERMS, "num_terms {} exceeds bound {}"),
    (("mersenne", "constant", "--terms", "2", "--digits"),
     mersenne.MAX_SUM_DIGITS, "precision_digits {} exceeds bound {}"),
])
def test_past_bound_message_names_the_library_bound(capsys, argv, bound, message):
    past = bound + 1 + (argv[0] == "goldbach")  # the goldbach verbs take evens
    rc = dispatch([*argv, str(past)])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (1, "", f"error: {message.format(past, bound)}\n")


@pytest.mark.parametrize("argv, value, message", [
    (("sieve", "--limit"), -1, "limit must be >= 0, got -1"),
    (("interval", "--n"), 0, "n must be >= 1, got 0"),
    (("classify", "--value"), 0, "value must be >= 1, got 0"),
    (("germain", "--limit"), 6, "limit must be >= 7, got 6"),
    (("genfunc", "--family", "full", "--count"), 0, "count must be >= 1, got 0"),
    (("goldbach", "scan", "--limit"), 4, "limit must be even and >= 6, got 4"),
    (("goldbach", "scan", "--limit"), 7, "limit must be even and >= 6, got 7"),
    (("goldbach", "construct", "--n"), 7, "n must be even and >= 8, got 7"),
    (("mersenne", "scan", "--max"), 1, "max_p must be >= 2, got 1"),
    (("mersenne", "constant", "--digits", "10", "--terms"), 0,
     "num_terms must be >= 1, got 0"),
    (("mersenne", "constant", "--digits", "10", "--terms"), 52,
     "num_terms 52 exceeds bound 30"),
    (("mersenne", "constant", "--terms", "2", "--digits"), 0,
     "precision_digits must be >= 1, got 0"),
    (("landau", "enumerate", "--limit"), 1, "limit must be >= 2, got 1"),
    (("landau", "residues", "--limit"), 1, "limit must be >= 2, got 1"),
    (("matrix", "--ova", "7", "--k"), 0, "k must be >= 1, got 0"),
    (("matrix", "--ova", "7", "--k", "1", "--start"), 0, "start must be >= 1, got 0"),
    (("density", "--ova", "7", "--rotations"), 0, "rotations must be >= 1, got 0"),
    (("dirichlet", "--all", "--x"), 999, "x must be >= 1000, got 999"),
    (("dirichlet", "--ova", "7", "--x"), 999, "x must be >= 1000, got 999"),
])
def test_out_of_range_message_names_the_value(capsys, argv, value, message):
    rc = dispatch([*argv, str(value)])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (1, "", f"error: {message}\n")


def test_readme_python_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0 and result.attempted >= 11, result
