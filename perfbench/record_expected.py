"""Write perfbench/expected.json, the reference the benchmark checks against.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/record_expected.py

It holds the stdout and witness-file SHA-256 of every operation whose
arguments do not depend on the seed, and the number of primes
z + 360*G, 1 <= G <= 10**6, for each residue z coprime to 360, counted
by the sieve below rather than by ova360. Every operation must pass its
other checks before its digest is recorded.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def density_hits(rotations: int = workloads.DENSITY_ROTATIONS) -> dict[str, int]:
    """Primes z + 360*G with 1 <= G <= rotations, counted per residue z by
    a segmented sieve of Eratosthenes over [360, 360*(rotations + 1))."""
    lo, hi = workloads.MODULUS, workloads.MODULUS * (rotations + 1)
    root = math.isqrt(hi) + 1
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i::i] = False
    base = np.flatnonzero(small)
    counts = np.zeros(workloads.MODULUS, dtype=np.int64)
    seg = 360 * (1 << 16)
    for start in range(lo, hi, seg):
        end = min(start + seg, hi)
        is_p = np.ones(end - start, dtype=bool)
        for p in base.tolist():
            first = max(p * p, -(-start // p) * p)
            is_p[first - start::p] = False
        values = start + np.flatnonzero(is_p)
        counts += np.bincount(values % workloads.MODULUS, minlength=workloads.MODULUS)
    return {str(z): int(counts[z]) for z in workloads.TOTATIVES}


def _key(op) -> str:
    return json.dumps([op.id, op.kind, op.argv, op.func, op.args, op.inputs])


def main() -> int:
    expected = {"digests": {}, "density_hits": density_hits()}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, 0, expected)
            others = {_key(op) for op in workloads.build(name, 1, expected)}
            bench = run.Bench(ops, workloads.KERNEL[name], workdir, expected)
            for op in ops:
                rec = bench.run_op(op, trace=False)
                if rec.problems:
                    print(f"{op.id}: {rec.problems}", file=sys.stderr)
                    return 1
                if _key(op) in others:
                    expected["digests"][op.id] = {"stdout": rec.stdout_sha, "file": rec.file_sha}
                print(f"{op.id}: ok, {rec.op_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
