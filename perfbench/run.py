"""ova360 benchmark: fixed CLI verbs and library calls at stated scales.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sieve-scans --seed 1 --seconds 25 --trace 0

Each operation runs in a fresh child interpreter, one at a time, as a
user runs `ova360 <verb>`; the children import ova360 from ./src. Whole
passes over the workload's operations repeat until --seconds have gone
by. Every output is checked (see workloads.py) outside the timed region.

--trace 0 prints the end-to-end metrics: wall_s (sum over operations of
the median operation time, set-up excluded), setup_s (median time from
spawn to `ova360.cli` imported), both scaled to an undisturbed core by
the workload's calibration kernel (see scale()); peak_rss_mb (median over passes of
the largest child ru_maxrss) and success_rate (1 - error_rate).
--trace 1 alternates untraced and traced passes and prints per-layer
metrics from the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import FILE_ARG, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 60
# Each calibration kernel's time on an undisturbed core of the reference
# machine (2-core x86-64 VM, Python 3.11.7, numpy 2.4.6); see scale().
KERNEL_NOMINAL_S = {"py": 0.035, "np": 0.030}

# (function, metric suffixes) reported from the traced passes
LAYER_FUNCS = (
    ("primality.odd_prime_bitmap", ("calls", "self_s", "bytes_computed")),
    ("primality.sieve_primes", ("self_s",)),
    ("primality.is_prime", ("calls", "self_s")),
    ("primality.is_prime_big", ("calls", "self_s")),
    ("goldbach.scan", ("calls", "self_s")),
    ("goldbach.scan_witnesses", ("calls", "self_s")),
    ("goldbach.interval_sum_check", ("self_s",)),
    ("mersenne.lucas_lehmer", ("calls", "self_s")),
    ("mersenne.scan_exponents", ("self_s",)),
    ("landau.enumerate_k2_plus_1", ("self_s",)),
    ("matrix.residue_counts", ("self_s",)),
    ("matrix.density", ("self_s",)),
    ("matrix.build_matrix", ("self_s",)),
    ("matrix.matrix_stats", ("self_s",)),
    ("ova.germain_residues", ("self_s",)),
    ("cli.dispatch", ("self_s",)),
)
SUFFIX_UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "bytes"}
OTHER_LAYER_UNITS = {
    "primality.mr.prime_ratio": "ratio",
    "mersenne.lucas_lehmer.prime_ratio": "ratio",
    "goldbach.scan_passes_per_verb": "ratio",
    "landau.enumerate_k2_plus_1.mr_calls": "count",
    "cli.stdout_bytes": "bytes",
    "cli.file_bytes": "bytes",
    "setup.import_numpy_s": "s",
    "setup.import_ova360_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Record:
    """One child run of one operation."""

    op_id: str
    rc: int
    op_s: float
    setup_s: float
    import_numpy_s: float
    import_ova360_s: float
    maxrss_mb: float
    trace: dict | None
    stdout_sha: str
    file_sha: str | None
    stdout_bytes: int
    file_bytes: int
    kernel_s: list[float]
    problems: list[str]


class Bench:
    def __init__(self, ops, kernel: str, workdir: Path, expected: dict):
        self.ops = ops
        self.kernel = kernel
        self.workdir = workdir
        self.expected = expected
        self._checked: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, op, trace: bool) -> Record:
        stdout_path = self.workdir / "stdout"
        file_path = self.workdir / "witnesses.csv"
        result_path = self.workdir / "result.json"
        spec_path = self.workdir / "spec.json"
        for p in (file_path, result_path):
            p.unlink(missing_ok=True)
        spec = {
            "kind": op.kind, "trace": trace, "kernel": self.kernel, "result": str(result_path),
            "argv": [str(file_path) if a == FILE_ARG else a for a in op.argv],
            "func": op.func, "args": op.args, "inputs": op.inputs,
        }
        spec_path.write_text(json.dumps(spec))
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path), str(spawn_ns)],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stdout = stdout_path.read_bytes()
        file_bytes = file_path.read_bytes() if op.writes_file and file_path.exists() else None
        try:
            res = json.loads(result_path.read_text())
        except (OSError, ValueError):
            err = (self.workdir / "stderr").read_text(errors="replace")[-2000:]
            res = {"op_s": 0.0, "setup_s": 0.0, "import_numpy_s": 0.0, "import_ova360_s": 0.0,
                   "kernel_s": [], "maxrss_kb": 0, "trace": None,
                   "error": f"child left no result (exit {rc}): {err}"}
        stdout_sha = hashlib.sha256(stdout).hexdigest()
        file_sha = hashlib.sha256(file_bytes).hexdigest() if file_bytes is not None else None
        key = (op.id, rc, stdout_sha, file_sha)
        if key not in self._checked:
            self._checked[key] = self._check(op, Output(rc, stdout, file_bytes),
                                             stdout_sha, file_sha)
        problems = list(self._checked[key])
        if "error" in res:
            problems.append(res["error"])
        if trace and res["trace"] is not None and op.trace_check is not None:
            try:
                problems += op.trace_check(Output(rc, stdout, file_bytes), res["trace"])
            except Exception as exc:  # a missing span is a failed self-check
                problems.append(f"trace check raised {exc!r}")
        rec = Record(
            op_id=op.id, rc=rc, op_s=res["op_s"], setup_s=res["setup_s"],
            import_numpy_s=res["import_numpy_s"], import_ova360_s=res["import_ova360_s"],
            maxrss_mb=res["maxrss_kb"] * 1024 / 1e6, trace=res["trace"],
            stdout_sha=stdout_sha, file_sha=file_sha,
            stdout_bytes=len(stdout), file_bytes=len(file_bytes or b""),
            kernel_s=res["kernel_s"], problems=problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op.id}: {p}" for p in problems]
        return rec

    def _check(self, op, out, stdout_sha: str, file_sha: str | None) -> list[str]:
        problems = []
        if out.rc != op.expect_rc:
            problems.append(f"exit code {out.rc}, want {op.expect_rc}")
        want = self.expected["digests"].get(op.id)
        if want is not None:
            if want["stdout"] != stdout_sha:
                problems.append("stdout differs from the recorded output")
            if want.get("file") != file_sha:
                problems.append("witness file differs from the recorded output")
        if op.check is not None:
            try:
                problems += op.check(out)
            except Exception as exc:  # malformed output is a failed check
                problems.append(f"check raised {exc!r}")
        return problems

    def run_pass(self, trace: bool) -> list[Record]:
        return [self.run_op(op, trace) for op in self.ops]


def _median(values):
    return statistics.median(values) if values else 0.0


def raw_wall_s(passes: list[list[Record]]) -> float:
    """Sum over operations of the median operation time."""
    by_op: dict[str, list[float]] = {}
    for recs in passes:
        for r in recs:
            by_op.setdefault(r.op_id, []).append(r.op_s)
    return sum(_median(v) for v in by_op.values())


def raw_setup_s(passes: list[list[Record]]) -> float:
    return _median([r.setup_s for recs in passes for r in recs])


def scale(passes: list[list[Record]], kernel: str) -> float:
    """The kernel's nominal time over its median time in this run.

    The shared host's speed drifts by up to a third over minutes, for
    every process alike, so raw seconds from runs minutes apart disagree
    by more than any useful bound. Each child times the workload's fixed
    kernel just before its operation, on the same core; multiplying by
    this factor reports times as they would read on an undisturbed core.
    """
    samples = [k for recs in passes for r in recs for k in r.kernel_s]
    return KERNEL_NOMINAL_S[kernel] / _median(samples) if samples else 1.0


def end_to_end(passes: list[list[Record]], bench: Bench) -> dict:
    f = scale(passes, bench.kernel)
    return {
        "wall_s": (f * raw_wall_s(passes), "s"),
        "setup_s": (f * raw_setup_s(passes), "s"),
        "peak_rss_mb": (_median([max(r.maxrss_mb for r in recs) for recs in passes]), "MB"),
        "success_rate": (1 - bench.failed / max(bench.attempted, 1), "ratio"),
    }


def layer_metrics(recs: list[Record], ops) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    funcs: dict[str, dict] = {}
    edges: dict[str, int] = {}
    mr_calls = mr_true = spans = 0
    for r in recs:
        t = r.trace or {"funcs": {}, "edges": {}, "mr_calls": 0, "mr_true": 0, "spans": 0}
        for name, f in t["funcs"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "true": 0, "nbytes": 0})
            for k in acc:
                acc[k] += f[k]
        for k, v in t["edges"].items():
            edges[k] = edges.get(k, 0) + v
        mr_calls += t["mr_calls"]
        mr_true += t["mr_true"]
        spans += t["spans"]

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name, suffixes in LAYER_FUNCS:
        for suffix in suffixes:
            key = {"bytes_computed": "nbytes"}.get(suffix, suffix)
            m[f"{name}.{suffix}"] = get(name, key)
    ll_calls = get("mersenne.lucas_lehmer", "calls")
    scan_verbs = sum(1 for op in ops if op.is_goldbach_scan)
    cli_ids = {op.id for op in ops if op.kind == "cli"}
    m.update({
        "primality.mr.prime_ratio": mr_true / mr_calls if mr_calls else 0.0,
        "mersenne.lucas_lehmer.prime_ratio":
            get("mersenne.lucas_lehmer", "true") / ll_calls if ll_calls else 0.0,
        "goldbach.scan_passes_per_verb":
            (get("goldbach.scan", "calls") + get("goldbach.scan_witnesses", "calls")) / scan_verbs
            if scan_verbs else 0.0,
        "landau.enumerate_k2_plus_1.mr_calls": sum(
            v for k, v in edges.items() if k.startswith("landau.enumerate_k2_plus_1>primality.")),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in recs if r.op_id in cli_ids),
        "cli.file_bytes": sum(r.file_bytes for r in recs if r.op_id in cli_ids),
        "setup.import_numpy_s": _median([r.import_numpy_s for r in recs]),
        "setup.import_ova360_s": _median([r.import_ova360_s for r in recs]),
        "trace.spans": spans,
    })
    return m


def layer_units() -> dict[str, str]:
    units = {f"{name}.{s}": SUFFIX_UNITS[s] for name, suffixes in LAYER_FUNCS for s in suffixes}
    units.update(OTHER_LAYER_UNITS)
    return units


def measure(bench: Bench, seconds: float, trace: bool):
    """Untraced passes, or alternating untraced/traced passes with --trace 1,
    until `seconds` have gone by (at least one of each)."""
    plain: list[list[Record]] = []
    traced: list[list[Record]] = []
    start = time.monotonic()
    while True:
        plain.append(bench.run_pass(False))
        if trace:
            traced.append(bench.run_pass(True))
        if time.monotonic() - start >= seconds:
            return plain, traced


def trace_metrics(bench: Bench, plain, traced) -> dict:
    per_pass = [layer_metrics(recs, bench.ops) for recs in traced]
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_pass]
    if any(c != counts[0] for c in counts):
        bench.problems.append("trace counts differ between traced passes")
    by_op = {}
    for recs in plain + traced:
        for r in recs:
            by_op.setdefault(r.op_id, set()).add((r.rc, r.stdout_sha, r.file_sha))
    for op_id, outputs in by_op.items():
        if len(outputs) > 1:
            bench.problems.append(f"{op_id}: traced and untraced outputs differ")
    units = layer_units()
    metrics = {name: (_median([m[name] for m in per_pass]), units[name]) for name in per_pass[0]}
    overhead = (_median([sum(r.op_s for r in recs) for recs in traced])
                - _median([sum(r.op_s for r in recs) for recs in plain]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    expected = workloads.load_expected()
    ops = workloads.build(args.workload, args.seed, expected)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(ops, workloads.KERNEL[args.workload], workdir, expected)
        plain, traced = measure(bench, args.seconds, bool(args.trace))
        if args.trace:
            metrics = trace_metrics(bench, plain, traced)
        else:
            metrics = end_to_end(plain, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(f"  {'error_rate':<48} {bench.failed / max(bench.attempted, 1):.6g} ratio "
          f"({bench.failed} failed / {bench.attempted} attempted)")
    print(f"  {'raw wall_s, setup_s (unscaled)':<48} {raw_wall_s(plain):.6g} s, "
          f"{raw_setup_s(plain):.6g} s; kernel scale factor {scale(plain, bench.kernel):.6g}")
    for op in ops:
        times = [r.op_s for recs in plain for r in recs if r.op_id == op.id]
        print(f"  {'op.' + op.id + '_s':<48} {_median(times):.6g} s")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks: child killed, work dir removed


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "ova360" / "cli.py").is_file():
        sys.exit(f"perfbench: no ova360 sources under {ROOT / 'src'}")
    sys.exit(main())
