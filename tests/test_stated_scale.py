"""The SHA-256 of the CLI's output at its stated scales, each verb run
in a fresh interpreter, and of the witness rows at the witness file's
bound, hashed in-process: the byte-identity check a refactor of the
scans or the decimal kernel is held to. Marked stated_scale, which
tier-1 deselects (pyproject's addopts); `python -m pytest -m
stated_scale` runs them, and the class counts at 367^4 in
tests/test_matrix.py, in about 24 s on a 2-core VM. A digest that
changes with a named behaviour change is updated with it."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ova360
from ova360 import goldbach, render

# id, argv and the sha256 of stdout, or of the file that "{file}" names
_DIGESTS = [
    ("sieve_1e8_plain", ["sieve", "--limit", "100000000"],
     "fb7e00e2e7eb157e21837f89d0911c01729ebbbd9a18f8608f6e3936b9f953ee"),
    ("sieve_1e8_csv", ["sieve", "--limit", "100000000", "--format", "csv"],
     "be5af6641df7b7dbd42ab12c32275be98b6f2c10ed2d4499b9e549938d1fcd21"),
    ("sieve_1e8_json", ["sieve", "--limit", "100000000", "--format", "json"],
     "a0ba24c3926e5a08266b48bd390e08f04cd54fd4c2d6f42f0d7ee86deaa7ea0a"),
    ("goldbach_scan_1e9_json",
     ["goldbach", "scan", "--limit", "1000000000", "--format", "json"],
     "382247c65130810b800e917d89710ad2b6170e60367e0ab5a4f01df407f631ac"),
    ("dirichlet_all_1e10_json",
     ["dirichlet", "--x", "10000000000", "--all", "--format", "json"],
     "80029d6b0aaea308e89b90c8c37bbdf3a5fa1efc0c92949bbc211eab44652e71"),
    ("landau_enumerate_1e12_json",
     ["landau", "enumerate", "--limit", "1000000000000", "--format", "json"],
     "d873b90279f893df0fc29be6287c50d478578bc2e206d2fbc60a9660d8326bdd"),
    ("density_7_1e8", ["density", "--ova", "7", "--rotations", "100000000"],
     "8279a9522a159ea7e3fcafe13b528be6320c2c376143ec6d907a455b7a70c828"),
    ("goldbach_witnesses_2e6",
     ["goldbach", "scan", "--limit", "2000000", "--emit-witnesses", "{file}"],
     "9fe9b5fa90274881b7e3bb3494bd6735030647b7c04612fbf8ebbe52cead1809"),
    # four segments of the odds, so blocks end at three segment edges
    ("goldbach_witnesses_1e7",
     ["goldbach", "scan", "--limit", "10000000", "--emit-witnesses", "{file}"],
     "9fe85316847b887f72d321df6880b1c23768b6e02e109c492aa519e5866e77b6"),
    # MAX_FAMILY_ALPHAS alphas just below MAX_FAMILY_ALPHA
    ("landau_family_37_plain",
     ["landau", "family", "--ova", "37", "--alpha", "9990000..9999999"],
     "795e8811a5fabefc1a425110b33451676ee978871565f8593c0f1232877e8b94"),
    ("landau_family_37_csv",
     ["landau", "family", "--ova", "37", "--alpha", "9990000..9999999",
      "--format", "csv"],
     "2a1be79e06267da978b4f4f349eafecc0ed162b3b9fdc37973cccb4ddf938088"),
    ("landau_family_37_json",
     ["landau", "family", "--ova", "37", "--alpha", "9990000..9999999",
      "--format", "json"],
     "0d66d9b6738ec3824d1078718da04a87c8f3abfb0a197cdcd609f1741966dfb9"),
]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@pytest.mark.stated_scale
@pytest.mark.parametrize("argv, digest", [case[1:] for case in _DIGESTS],
                         ids=[case[0] for case in _DIGESTS])
def test_output_at_stated_scale_matches_digest(tmp_path, argv, digest):
    file, stdout = tmp_path / "file", tmp_path / "stdout"
    argv = [str(file) if a == "{file}" else a for a in argv]
    # the package under test, also where pytest's pythonpath put it
    src = str(Path(ova360.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with open(stdout, "wb") as sink:
        proc = subprocess.run([sys.executable, "-m", "ova360.cli", *argv],
                              stdout=sink, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha256(file if file.exists() else stdout) == digest


@pytest.mark.stated_scale
def test_witness_rows_at_the_witness_bound_match_digest():
    # the rows of `goldbach scan --limit 2e8 --emit-witnesses`, hashed
    # in-process as the scan makes them (the 2.16 GB file is not
    # written): its 9-digit n and q and the 10^8 crossing reach widths
    # the digests above do not
    h = hashlib.sha256(b"n,p,q\n")
    goldbach.scan(2 * 10**8, on_block=lambda first, best: [
        h.update(part) for part in render.witness_rows(first, best)])
    assert h.hexdigest() == (
        "49861e83eab505cc58fb52b2699b8c99192e23ae702185b60718c71a9294e620")
