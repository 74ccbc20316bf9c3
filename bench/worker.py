"""One benchmark process: import gaugequad from source and call cli.main.

bench/run.py starts this script once per solve, so every solve gets a fresh,
single-threaded interpreter and its own peak RSS.  It is not meant to be run
by hand:

    python3 bench/worker.py --root ROOT --mode MODE --spawned-at T ARGVS_JSON

ARGVS_JSON is a JSON list of argument lists; cli.main is called on each in
turn with its standard output captured.  MODE is one of

    setup  stop at the first solve call and report only the set-up time;
    solve  run every argument list untraced;
    trace  run them with the layer wrappers of tracer.py installed;
    speed  time the interpreter start with the numpy import, and
           speed_kernel(), without importing gaugequad at all.

The last line of standard output is one JSON record.  An exception escaping
cli.main (MemoryError under the memory cap, say) is left to end the process
with a traceback; run.py turns the exit status into a failed row.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time

# Names cli.main looks up when it starts the numerical work; the first call
# to any of them ends the set-up period.
SOLVE_ENTRIES = ("gauge_integrate", "check_criterion1", "check_criterion2")


class _SetupDone(Exception):
    """Raised at the first solve call in setup mode."""


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if found."""
    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    )
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def speed_kernel(np) -> float:
    """Seconds for a fixed NumPy kernel shaped like the bisection engine.

    Half-million-element float arithmetic, masks, compaction, a stable
    argsort and sin on the result.  It does not touch gaugequad, so its time
    tracks only the machine; run.py divides solve times by it.
    """
    u = np.random.default_rng(0).random(1 << 19)
    t0 = time.perf_counter()
    for _ in range(4):
        v = u + 0.5
        m = 0.5 * (u + v)
        ok = (m - u < 0.3) & (v - m < 0.3)
        c = np.concatenate([u[ok], m[~ok]])
        c = c[np.argsort(c, kind="stable")]
        np.sin(1.0 / (c * c + 1.0))
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--mode", choices=("setup", "solve", "trace", "speed"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    ap.add_argument("argvs")
    ns = ap.parse_args()

    if ns.mode == "speed":
        import numpy as np

        startup = time.clock_gettime(time.CLOCK_MONOTONIC) - ns.spawned_at
        print(json.dumps({"mode": "speed", "startup_s": startup, "speed_s": speed_kernel(np)}))
        return 0

    src = os.path.join(os.path.abspath(ns.root), "src")
    sys.path.insert(0, src)
    from gaugequad import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"gaugequad imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if ns.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    entered: list[float] = []

    def stamp(fn):
        def entry(*args, **kwargs):
            if not entered:
                entered.append(time.clock_gettime(time.CLOCK_MONOTONIC))
                if ns.mode == "setup":
                    raise _SetupDone
            return fn(*args, **kwargs)
        return entry

    for name in SOLVE_ENTRIES:
        setattr(cli, name, stamp(getattr(cli, name)))

    runs = []
    wall = 0.0
    for argv in json.loads(ns.argvs):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except _SetupDone:
            break
        dt = time.perf_counter() - t0
        wall += dt
        runs.append({"argv": argv, "rc": rc, "wall_s": dt, "out": buf.getvalue()})

    import numpy as np

    record = {
        "mode": ns.mode,
        "setup_s": entered[0] - ns.spawned_at if entered else None,
        "wall_s": wall,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
    }
    if tracer is not None:
        record["trace"] = tracer.summary(wall)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
