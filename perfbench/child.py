"""Run one benchmark operation in a fresh interpreter, as a CLI user would.

Usage: child.py SPEC_JSON SPAWN_MONOTONIC_NS

Times the import of numpy and of ova360.cli (set-up), times the
workload's calibration kernel, optionally instruments the package, runs the
operation with stdout going to the file the parent opened, and writes
timings, ru_maxrss and the trace summary to the spec's result path. The
process exits with the operation's exit code.
"""

import os
import sys
import time

_T_IMPORT0 = time.perf_counter()
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

import numpy  # noqa: E402

_T_IMPORT1 = time.perf_counter()

import ova360.cli  # noqa: E402

_T_IMPORT2 = time.perf_counter()
_READY_NS = time.monotonic_ns()

import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

KERNEL_RUNS = 2


def kernel_py() -> float:
    """Seconds for a fixed mix of interpreter-bound work like ova360's
    Miller-Rabin, Lucas-Lehmer and rendering: a small-int loop, big-int
    modular squaring and text formatting."""
    t = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    m = (1 << 4423) - 1
    x = 3 ** 1500
    for _ in range(200):
        x = x * x % m
    "".join(f"{i},{i + 1}\n" for i in range(50_000))
    return time.perf_counter() - t


def kernel_np() -> float:
    """Seconds for a fixed mix of numpy work like ova360's bitmap sieve and
    gathers: strided writes, flatnonzero, a fancy-index gather, bincount."""
    t = time.perf_counter()
    a = numpy.ones(4_000_000, dtype=bool)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        a[p * p::p] = False
    idx = numpy.flatnonzero(a)
    int(a[(idx * 7) % a.size].sum())
    numpy.bincount(idx % 360, minlength=360)
    return time.perf_counter() - t


KERNELS = {"py": kernel_py, "np": kernel_np}


def _canonical(obj) -> str:
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, default=str) + "\n"


def main() -> int:
    spec_path, spawn_ns = sys.argv[1], int(sys.argv[2])
    if not os.path.abspath(ova360.cli.__file__).startswith(_SRC + os.sep):
        print(f"ova360 imported from {ova360.cli.__file__}, not {_SRC}", file=sys.stderr)
        return 3
    with open(spec_path) as fh:
        spec = json.load(fh)
    kernel_s = [KERNELS[spec["kernel"]]() for _ in range(KERNEL_RUNS)]
    tracer = None
    if spec["trace"]:
        from spans import instrument
        tracer = instrument()

    rc = 0
    kind = spec["kind"]
    t0 = time.perf_counter()
    try:
        if kind == "cli":
            t0 = time.perf_counter()
            rc = ova360.cli.dispatch(spec["argv"])
            sys.stdout.flush()
            t1 = time.perf_counter()
        else:
            module, name = spec["func"].split(".")
            fn = getattr(importlib.import_module(f"ova360.{module}"), name)
            if kind == "map":
                inputs = spec["inputs"]
                t0 = time.perf_counter()
                verdicts = [fn(x) for x in inputs]
                t1 = time.perf_counter()
                sys.stdout.write("".join("1" if v else "0" for v in verdicts) + "\n")
            else:
                t0 = time.perf_counter()
                result = fn(*spec["args"])
                t1 = time.perf_counter()
                sys.stdout.write(_canonical(result))
            sys.stdout.flush()
    except Exception:  # an uncaught error is a CLI crash: exit 1 with a traceback
        traceback.print_exc()
        t1 = time.perf_counter()
        rc = 1
    out = {
        "op_s": t1 - t0,
        "setup_s": (_READY_NS - spawn_ns) / 1e9,
        "import_numpy_s": _T_IMPORT1 - _T_IMPORT0,
        "import_ova360_s": _T_IMPORT2 - _T_IMPORT1,
        "kernel_s": kernel_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
