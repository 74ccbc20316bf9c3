"""Byte-identical CLI output over a fixed configuration matrix.

`cli_golden.json` records stdout, stderr and exit code for every entry of
CONFIGS.  The whole matrix runs in one subprocess with BLAS and OpenMP pinned
to one thread.  Printed sums do not depend on that pin: every Riemann sum
adds fixed 2**16-cell blocks in cell order without BLAS, which
test_cli.py checks at one and two threads.

A leading NAME=value item of a configuration sets that environment variable
for the one call, as in a shell.  Regenerate the file, only when an output
change is intended, with

    python tests/test_cli_golden.py --write
"""
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"

_FORMATS = ("table", "csv", "json")

_RUNS = [
    ["integrate", "f", "--tol", "1e-2"],
    ["integrate", "fj", "--j", "5", "--tol", "1e-2"],
    ["integrate", "F-defect", "--tol", "1e-2"],
    ["integrate", "poly-0", "--tol", "1e-4"],
    ["integrate", "poly-5", "--tol", "1e-4"],
    ["loops", "--n-max", "12"],
    ["converge", "1", "--eps", "1e-2"],
    ["converge", "2", "--eps", "1e-2"],
    ["converge", "3", "--eps", "1e-2"],
    ["converge", "all", "--eps", "1e-2"],
]

_USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["integrate"],
    ["integrate", "g"],
    ["integrate", "f", "--tol", "abc"],
    ["integrate", "f", "--tol", "-1"],
    ["integrate", "f", "--tol", "0"],
    ["integrate", "f", "--trials", "1"],
    ["integrate", "f", "--max-depth", "4"],
    ["integrate", "f", "--max-depth", "200"],
    ["integrate", "f", "--format", "xml"],
    ["integrate", "fj", "--tol", "1e-4"],
    ["integrate", "fj", "--j", "0"],
    ["integrate", "F-defect", "--j", "0"],
    ["integrate", "fj", "--j", "9007199254740993"],  # 2**53 + 1
    ["integrate", "poly-3", "--tol", "1e-9", "--max-depth", "8"],  # a removed flag
    ["GAUGEQUAD_SEED=not-a-number", "integrate", "poly-1", "--tol", "1e-4"],  # ignored: seed 0, exit 0
    ["figures"],
    ["figures", "5"],
    ["figures", "1", "--x-min", "0"],
    ["figures", "1", "--x-min", "0.9", "--x-max", "0.5"],
    ["figures", "1", "--x-max", "1.5"],
    ["figures", "1", "--count", "1"],
    ["loops", "--n-max", "1"],
    ["loops", "--n-max", "x"],
    ["converge"],
    ["converge", "4"],
    ["converge", "1", "--eps", "-1"],
    ["converge", "2", "--eps", "0"],
    ["converge", "1", "--trials", "1"],
    ["converge", "2", "--max-depth", "4"],
    ["converge", "3", "--max-depth", "200"],
    ["demo", "--tol", "-1"],
    ["demo", "--trials", "1"],
    ["demo", "--max-depth", "200"],
    ["integrate", "poly-2", "--seed", "-1"],
    ["GAUGEQUAD_SEED=-1", "integrate", "poly-1"],  # ignored: seed 0, exit 0
    ["demo", "--format", "json"],
]

CONFIGS = (
    [run + ["--format", fmt] for run in _RUNS for fmt in _FORMATS]
    + [
        ["integrate", "f", "--tol", "1e-2", "--seed", "3", "--trials", "2"],
        ["integrate", "poly-2", "--tol", "1e-4", "--seed", "5"],
        ["converge", "1", "--eps", "1e-2", "--seed", "5", "--trials", "3"],
        ["demo", "--tol", "1e-2"],
    ]
    + [["figures", w, "--count", "7"] for w in ("1", "2", "3", "4")]
    + [["figures", "4", "--x-min", "0.3", "--x-max", "0.7", "--count", "3"]]
    + _USAGE_ERRORS
    + [["--help"]]
    + [[cmd, "--help"] for cmd in ("integrate", "figures", "loops", "converge", "demo")]
)


def run_matrix() -> dict:
    """Call cli.main on every configuration in this process."""
    from gaugequad.cli import main

    results = {}
    for config in CONFIGS:
        assignments = itertools.takewhile(lambda a: "=" in a, config)
        env = dict(a.split("=", 1) for a in assignments)
        argv = config[len(env):]
        out, err = io.StringIO(), io.StringIO()
        os.environ.update(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        for name in env:
            del os.environ[name]
        results[" ".join(config)] = {
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "exit": code,
        }
    return results


def test_cli_output_matches_golden():
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        COLUMNS="80",
        PYTHONPATH=str(HERE.parent / "src"),
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(got) == list(expected)
    for key, want in expected.items():
        assert got[key] == want, key


if __name__ == "__main__":
    matrix = run_matrix()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(matrix))
