import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gaugequad import cli, integrator, oscillator, partition
from gaugequad.cli import main
from gaugequad.oscillator import loop_area_estimate, loop_root

from conftest import package_threads, started_threads

SIN1 = math.sin(1.0)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- integrate

def test_integrate_f_reports_sin1(capsys):
    code, out, _ = run(
        capsys,
        ["integrate", "f", "--tol", "5e-3", "--trials", "2", "--seed", "0",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["value"] - SIN1) <= 5e-3
    assert payload["abs_error"] <= 5e-3
    assert payload["oracle"] == SIN1


def test_integrate_fj_j2(capsys):
    code, out, _ = run(
        capsys,
        ["integrate", "fj", "--j", "2", "--tol", "1e-4", "--trials", "2",
         "--seed", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0306716086348786) <= 1e-4


def test_integrate_poly(capsys):
    code, out, _ = run(
        capsys,
        ["integrate", "poly-2", "--tol", "1e-6", "--trials", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0 / 3.0) <= 1e-6


def test_integrate_defect_run(capsys):
    code, out, _ = run(
        capsys, ["integrate", "F-defect", "--tol", "1e-2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] < 1e-2


def test_integrate_fj_requires_j(capsys):
    code, _, err = run(capsys, ["integrate", "fj", "--tol", "1e-4"])
    assert code == 1
    assert "--j" in err


def test_integrate_rejects_bad_config(capsys):
    assert run(capsys, ["integrate", "f", "--tol", "-1"])[0] == 1
    assert run(capsys, ["integrate", "f", "--trials", "1"])[0] == 1
    for function in ("poly-2", "f", "F-defect"):
        assert run(capsys, ["integrate", function, "--tol", "1e-4", "--j", "7"]) == (
            1, "", "error: --j applies only to integrate fj\n"
        )
    for value in ("nan", "inf"):
        for argv in (["integrate", "f"], ["integrate", "F-defect"], ["demo"]):
            assert run(capsys, argv + ["--tol", value]) == (
                1, "", "error: --tol must be positive\n"
            )
        for which in ("1", "2", "3", "all"):
            assert run(capsys, ["converge", which, "--eps", value]) == (
                1, "", "error: --eps must be positive\n"
            )


def test_integrate_rejects_j_beyond_exact_floats(capsys, monkeypatch):
    # past 2**53, float(j) is not j, and f_j, its gauge and F_j all use float(j)
    monkeypatch.setattr(cli, "gauge_integrate", None)  # the solve never starts
    for j in (2**53 + 1, 10**200, 10**400):
        assert run(capsys, ["integrate", "fj", "--j", str(j)]) == (
            1, "", "error: --j must be <= 2**53\n"
        )


def test_depth_exceeded_exits_not_converged(capsys, monkeypatch):
    monkeypatch.setattr(partition, "_MAX_DEPTH", 8)
    assert run(capsys, ["integrate", "poly-3", "--tol", "1e-9"]) == (
        2, "", "error: 256 cells still unacceptable at depth 8; "
        "gauge is finer than float spacing allows\n",
    )


_NO_MEMORY = "Unable to allocate 384. MiB for an array with shape (50331648,) and data type float64"


@pytest.mark.threads
def test_memory_error_on_the_build_thread_exits_not_converged(capsys, monkeypatch):
    def build(*args):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(integrator, "_random_partition", build)
    assert run(capsys, ["integrate", "poly-3", "--tol", "1e-3"]) == (
        2, "", f"error: out of memory: {_NO_MEMORY}\n"
    )


@pytest.mark.threads
def test_memory_error_on_the_build_helper_exits_not_converged(capsys, monkeypatch):
    threads = []

    def trial_orders(rng, n):
        threads.append(threading.current_thread().name)
        raise MemoryError(_NO_MEMORY)

    # draws go to the helper only on levels of at least _DRAW_BLOCK cells
    monkeypatch.setattr(partition, "_DRAW_BLOCK", 1)
    monkeypatch.setattr(partition, "_trial_orders", trial_orders)
    assert run(capsys, ["integrate", "poly-3", "--tol", "1e-3"]) == (
        2, "", f"error: out of memory: {_NO_MEMORY}\n"
    )
    assert threads and all(name.startswith("gaugequad-build") for name in threads)
    assert not [t for t in threading.enumerate() if t.name.startswith("gaugequad-build")]


@pytest.mark.threads
def test_memory_error_on_the_sum_worker_exits_not_converged(capsys, monkeypatch):
    threads = []

    def integrand(x):
        threads.append(threading.current_thread())
        raise MemoryError()

    # sums go to the worker only for partitions of more than _INLINE_SUM cells
    monkeypatch.setattr(integrator, "_INLINE_SUM", 0)
    monkeypatch.setattr(oscillator, "f", integrand)
    assert run(capsys, ["integrate", "f", "--tol", "1e-2"]) == (
        2, "", "error: out of memory: allocation failed\n"
    )
    assert threads and threading.main_thread() not in threads


@pytest.mark.threads
def test_small_criterion2_run_starts_no_build_helper(capsys, monkeypatch):
    # its partitions, of 1,770 to 48,804 cells, stay below one draw block, so
    # no build starts a helper; those of more than _INLINE_SUM cells are
    # summed on the worker while the next one builds
    started = started_threads(monkeypatch)
    code, out, _ = run(capsys, ["converge", "2", "--eps", "1e-2"])
    assert code == 0 and "passed = True" in out
    assert package_threads(started) == {"gaugequad-sum"}


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, ["frobnicate"])[0] == 1


# ---------------------------------------------------------------- figures

def test_figures_csv_shape_and_endpoint(capsys):
    code, out, _ = run(
        capsys,
        ["figures", "4", "--x-min", "0.01", "--x-max", "1.0", "--count", "50"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == 51
    x_last, y_last = (float(v) for v in lines[-1].split(","))
    assert x_last == 1.0
    assert y_last == SIN1  # 17 significant digits round-trip


def test_figures_identity_and_bound(capsys):
    args = ["--x-min", "0.02", "--x-max", "0.9", "--count", "40"]
    rows = {}
    for which in ("1", "2", "3"):
        code, out, _ = run(capsys, ["figures", which] + args)
        assert code == 0
        rows[which] = [
            tuple(float(v) for v in line.split(","))
            for line in out.strip().split("\n")[1:]
        ]
    for (x1, y1), (x2, y2), (x3, y3) in zip(rows["1"], rows["2"], rows["3"]):
        assert x1 == x2 == x3
        assert y3 == y1 - y2
        assert abs(y1) <= 2.0 * x1 * (1 + 1e-15)


def test_figures_rejects_bad_range(capsys):
    assert run(capsys, ["figures", "1", "--x-min", "0"])[0] == 1
    assert run(capsys, ["figures", "1", "--x-min", "0.9", "--x-max", "0.5"])[0] == 1
    assert run(capsys, ["figures", "1", "--count", "1"])[0] == 1
    # a billion rows would need about 300 GB: a usage error, not a traceback
    for count in ("1000001", "1000000000"):
        assert run(capsys, ["figures", "1", "--count", count]) == (
            1, "", "error: --count must be <= 1000000\n"
        )


@pytest.mark.parametrize("which", ["1", "2", "3", "4"])
def test_figures_below_overflow_of_one_over_x_squared_is_one_error_line(capsys, which):
    # 1/x^2 overflows below x ~ 7.46e-155: no nan rows, no numpy warnings
    # (warnings are errors in this suite)
    argv = ["figures", which, "--count", "3", "--x-min"]
    assert run(capsys, [*argv, "1e-300", "--x-max", "1e-299"]) == (
        1, "", f"error: fig{which} not finite at x=1e-300\n"
    )
    assert run(capsys, [*argv, "7.5e-155", "--x-max", "1e-154"])[0] == 0


# ------------------------------------------------------------------ loops

def test_loops_table_values_and_footer(capsys):
    code, out, _ = run(capsys, ["loops", "--n-max", "50", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["n", "root", "area", "even_partial", "odd_partial",
                      "alternating_partial"]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = [line for line in lines if line.startswith("#")]
    first = rows[0]
    assert float(first[1]) == pytest.approx(0.46065886596178063, abs=1e-16)
    assert float(first[2]) == pytest.approx(0.3395305452627101, abs=1e-16)
    even = [float(r[3]) for r in rows]
    odd = [float(r[4]) for r in rows]
    assert all(b >= a for a, b in zip(even, even[1:]))
    assert all(b >= a for a, b in zip(odd, odd[1:]))
    assert any("n = 46" in line for line in footer)
    # alternating partials bracket all later ones
    alt = [float(r[5]) for r in rows]
    for k in range(len(alt) - 1):
        lo, hi = sorted((alt[k], alt[k + 1]))
        assert all(lo <= v <= hi for v in alt[k + 1 :])


def test_loops_rejects_small_n_max(capsys):
    assert run(capsys, ["loops", "--n-max", "1"])[0] == 1


def test_loops_rejects_n_max_over_cap(capsys):
    # 10**7 rows would need about 10 GB: a usage error, not a traceback
    for n_max in ("1000001", "10000000"):
        assert run(capsys, ["loops", "--n-max", n_max]) == (
            1, "", "error: --n-max must be <= 1000000\n"
        )


def test_loops_json_matches_running_totals_bitwise(capsys):
    # the table's partial sums are running float totals, one row at a time
    n_max = 100_000
    rows, even, odd, alt, first = [], 0.0, 0.0, 0.0, None
    for n in range(1, n_max + 1):
        a = loop_area_estimate(n)
        if n % 2 == 0:
            even += a
            if first is None and even > 1.0:
                first = n
        else:
            odd += a
        alt += a if n % 2 == 0 else -a
        rows.append(dict(n=n, root=loop_root(n), area=a, even_partial=even,
                         odd_partial=odd, alternating_partial=alt))
    want = {"rows": rows, "first_even_partial_over_1": first,
            "alternating_bracket_width": loop_area_estimate(n_max + 1)}
    code, out, _ = run(capsys, ["loops", "--n-max", str(n_max), "--format", "json"])
    assert code == 0
    assert out == json.dumps(want) + "\n"


# --------------------------------------------------------------- converge

def test_converge_criterion3(capsys):
    code, out, _ = run(capsys, ["converge", "3", "--eps", "1e-3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["alpha1"] == SIN1 == payload["alpha2"]


def test_converge_criterion1(capsys):
    code, out, _ = run(
        capsys,
        ["converge", "1", "--eps", "1e-2", "--trials", "3", "--seed", "0",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["violations"] == 0


def test_converge_criterion2(capsys):
    code, out, _ = run(
        capsys,
        ["converge", "2", "--eps", "1e-2", "--trials", "2", "--seed", "0",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["worst_deviation"] < 2e-2


def test_converge_all(capsys):
    code, out, _ = run(
        capsys,
        ["converge", "all", "--eps", "1e-2", "--trials", "2", "--seed", "4",
         "--format", "json"],
    )
    assert code == 0
    payloads = json.loads(out)
    assert [p["criterion"] for p in payloads] == [
        "criterion1", "criterion2", "criterion3"
    ]
    assert all(p["passed"] for p in payloads)


# ------------------------------------------------------------------- demo

def test_demo_runs(capsys):
    code, out, _ = run(capsys, ["demo", "--tol", "1e-2", "--trials", "2"])
    assert code == 0
    assert "sin(1)" in out
    assert "n=8" in out


def test_demo_has_no_format_option(capsys):
    assert run(capsys, ["demo", "--tol", "1e-2", "--format", "json"]) == (
        1, "", "error: unrecognized arguments: --format json\n"
    )


# ---------------------------------------------------------- reproducibility

def test_identical_config_gives_byte_identical_output(capsys):
    argv = ["integrate", "f", "--tol", "5e-3", "--trials", "2", "--seed", "7",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_negative_seed_is_usage_error(capsys):
    assert run(capsys, ["integrate", "poly-2", "--seed", "-1"]) == (
        1, "", "error: --seed must be >= 0, got -1\n"
    )


def test_json_round_trips_to_same_doubles(capsys):
    argv = ["integrate", "poly-3", "--tol", "1e-6", "--trials", "2",
            "--format", "json"]
    _, out, _ = run(capsys, argv)
    payload = json.loads(out)
    redumped = json.loads(json.dumps(payload))
    for key, val in payload.items():
        if isinstance(val, float):
            assert redumped[key] == val


def test_csv_format_integrate(capsys):
    code, out, _ = run(
        capsys,
        ["integrate", "poly-1", "--tol", "1e-5", "--trials", "2", "--format", "csv"],
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["value"]) - 0.5) < 1e-5
    assert cols["converged"] == "True"


# ----------------------------------------------------------- BLAS threads

@pytest.mark.threads
def test_printed_sums_do_not_depend_on_blas_threads():
    # every Riemann sum follows the fixed block rule, so no digit depends on
    # how many threads a BLAS would use
    runs = [
        ["integrate", "f", "--tol", "1e-2", "--format", "json"],
        ["converge", "all", "--eps", "1e-2", "--format", "json"],
    ]
    script = f"from gaugequad.cli import main\nfor argv in {runs!r}:\n    main(argv)\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2
