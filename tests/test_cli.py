import json
import math

import pytest

from gaugequad.cli import main

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
    assert run(capsys, ["integrate", "f", "--max-depth", "4"])[0] == 1
    assert run(capsys, ["integrate", "f", "--max-depth", "200"])[0] == 1
    for value in ("nan", "inf"):
        for argv in (["integrate", "f"], ["integrate", "F-defect"], ["demo"]):
            assert run(capsys, argv + ["--tol", value]) == (
                1, "", "error: --tol must be positive\n"
            )
        for which in ("1", "2", "3", "all"):
            assert run(capsys, ["converge", which, "--eps", value]) == (
                1, "", "error: --eps must be positive\n"
            )


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


def test_figures_out_file(tmp_path, capsys):
    target = tmp_path / "fig.csv"
    code, out, _ = run(capsys, ["figures", "2", "--count", "5", "--out", str(target)])
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("x,y\n")
    assert len(content.strip().split("\n")) == 6


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


# ---------------------------------------------------------- reproducibility

def test_identical_config_gives_byte_identical_output(capsys):
    argv = ["integrate", "f", "--tol", "5e-3", "--trials", "2", "--seed", "7",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_env_seed_is_used_as_default(capsys, monkeypatch):
    argv = ["integrate", "poly-1", "--tol", "1e-5", "--trials", "2",
            "--format", "json"]
    monkeypatch.setenv("GAUGEQUAD_SEED", "123")
    _, out_env, _ = run(capsys, argv)
    monkeypatch.delenv("GAUGEQUAD_SEED")
    _, out_default, _ = run(capsys, argv)
    _, out_explicit, _ = run(capsys, argv + ["--seed", "123"])
    assert out_env == out_explicit
    assert json.loads(out_env)["converged"] and json.loads(out_default)["converged"]


def test_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("GAUGEQUAD_SEED", "not-a-number")
    code, _, err = run(capsys, ["integrate", "poly-1", "--tol", "1e-4"])
    assert code == 1
    assert "GAUGEQUAD_SEED" in err


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
