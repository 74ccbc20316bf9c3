"""Time the small CLI runs that the golden file and the CI smoke step use.

    python tools/small_runs.py

Runs each command below 7 times in this process, through `gaugequad.cli.main`
with its output captured, and prints one `median_ms exit_code command` line
per command.  The package is imported from the `src` directory next to this
script, so the timings are those of this checkout.  These runs build
partitions of at most a few tens of thousands of cells, below the bench's
workloads, so they show per-call costs such as thread starts.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gaugequad import cli  # noqa: E402

RUNS = 7

COMMANDS = [
    "converge all --eps 1e-2",
    "demo --tol 1e-2",
    "integrate fj --j 5 --tol 1e-2",
    "integrate poly-5 --tol 1e-4",
]


def timed(argv: list[str]) -> tuple[float, int]:
    """Seconds and exit code of one in-process `gaugequad` run of argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code


def main() -> int:
    for command in COMMANDS:
        runs = [timed(command.split()) for _ in range(RUNS)]
        median = statistics.median(s for s, _ in runs)
        print(f"{median * 1e3:8.1f} ms  exit {runs[-1][1]}  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
