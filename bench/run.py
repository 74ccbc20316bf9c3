"""gaugequad benchmark: time to a solution of stated accuracy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Every solve runs `gaugequad.cli.main` in its own fresh,
single-threaded worker process (bench/worker.py) under an address-space cap,
and every answer is checked against its closed form.  See bench/README.md
for the workloads, the metrics and what each layer metric should move.

--trace 0 prints the end-to-end metrics setup_s, wall_s and peak_rss_mb,
measured untraced on the workload's reference input (CLI seed 0) with times
scaled to the reference machine speed, plus one checked solve at CLI seed N.
--trace 1 prints the per-layer metrics from traced solves at CLI seed N.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from tracer import DETERMINISTIC_COUNTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

#: Address-space cap for every worker.  The gated workloads peak near 0.6 GB;
#: the cap turns a runaway run into a failed row instead of an OOM kill.
MEM_CAP_MB = 2048

#: CLI seed of the timed solves.  The seed changes the amount of work (see
#: README.md), so the timed input is fixed and --seed drives the checked
#: solve and the traced run instead.
REFERENCE_CLI_SEED = 0

#: Speed-probe readings on the reference machine (2 vCPU at 2.1 GHz, numpy
#: 2.4.6, one OpenBLAS thread): speed_kernel() seconds, and seconds from
#: spawn to numpy imported.  Each solve's wall time is scaled by SPEED_REF_S
#: over the mean kernel time of the probes on either side of it, and set-up
#: times by STARTUP_REF_S over the run's median probe start-up, so a shared
#: machine drifting slower or faster does not read as a change in gaugequad.
SPEED_REF_S = 0.33
STARTUP_REF_S = 0.10

SETUP_PROBES_PER_SOLVE = 2
MIN_TIMED_SOLVES = 5
MIN_TRACE_ROUNDS = 2
#: A run stops every worker by this many seconds after it starts.
RUN_DEADLINE_S = 170.0

SIN1 = math.sin(1.0)

#: Environment of every worker: one BLAS/OpenMP thread.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def check_integral(exact: float, tol: float) -> Callable[[list], str | None]:
    def check(outputs):
        (res,) = outputs
        if res.get("converged") is not True:
            return "not converged"
        err = abs(res["value"] - exact)
        if not err <= tol:
            return f"|value - exact| = {err:.3g} > tol {tol:g}"
        return None
    return check


def check_criteria(eps: float) -> Callable[[list], str | None]:
    bands = {"criterion1": eps, "criterion2": 2.0 * eps}

    def check(outputs):
        if [rep.get("criterion") for rep in outputs] != list(bands):
            return "expected one criterion1 and one criterion2 report"
        for rep in outputs:
            name = rep["criterion"]
            if rep["alpha"] != SIN1:
                return f"{name} alpha {rep['alpha']!r} is not sin 1"
            if rep["passed"] is not True or rep["violations"] != 0 or rep["trials"] < 1:
                return f"{name}: {rep['violations']} violations"
            if not rep["worst_deviation"] < bands[name]:
                return f"{name}: worst deviation {rep['worst_deviation']:.3g}"
        return None
    return check


@dataclass(frozen=True)
class Workload:
    argvs: tuple
    check: Callable[[list], str | None]
    # Counters that must be non-zero in a traced solve: a layer wrapper that
    # stops firing (a rename, a merged function) fails the benchmark.
    fires: tuple
    # Closed form of an integrate workload; None for the criteria.
    exact: float | None


_EVERY_WORKLOAD = ("partition.gauge.calls", "partition.build.calls", "partition.validate.calls",
          "integrator.sum.calls")

WORKLOADS = {
    "loop-f": Workload(
        argvs=(("integrate", "f", "--tol", "1e-3"),),
        check=check_integral(SIN1, 1e-3),
        fires=_EVERY_WORKLOAD + ("oscillator.integrand.calls", "integrator.solve.calls"),
        exact=SIN1,
    ),
    "poly-smooth": Workload(
        argvs=(("integrate", "poly-3", "--tol", "1e-9"),),
        check=check_integral(0.25, 1e-9),
        fires=_EVERY_WORKLOAD + ("integrator.solve.calls",),
        exact=0.25,
    ),
    "criteria": Workload(
        argvs=(("converge", "1", "--eps", "1e-3"), ("converge", "2", "--eps", "1e-3")),
        check=check_criteria(1e-3),
        fires=_EVERY_WORKLOAD + ("oscillator.integrand.calls", "criteria.check.calls",
                        "criteria.variable_sum.calls", "criteria.threshold.calls"),
        exact=None,
    ),
}


def _cap_memory(mb: int):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))
    return limit


def run_worker(mode: str, argvs, cli_seed: int | None, timeout: float) -> dict:
    """Run one worker process and return its row; never raises for a bad run.

    row["status"] is "ok", "exit N", "signal N" or "timeout"; row["record"]
    is the worker's JSON record when it printed one.
    """
    if cli_seed is not None:
        argvs = [list(a) + ["--seed", str(cli_seed), "--format", "json"] for a in argvs]
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, "--root", ROOT, "--mode", mode,
           "--spawned-at", repr(spawned), json.dumps([list(a) for a in argvs])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, preexec_fn=_cap_memory(MEM_CAP_MB))
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        status = "ok" if proc.returncode == 0 else (
            f"signal {-proc.returncode}" if proc.returncode < 0 else f"exit {proc.returncode}")
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = "timeout"
    row = {"mode": mode, "cli_seed": cli_seed, "status": status, "record": None,
           "error": None, "elapsed_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}
    if status == "ok":
        try:
            row["record"] = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            row["status"] = "no record"
    if row["status"] != "ok":
        tail = err.strip().splitlines()[-1:] if err else []
        row["error"] = f"{row['status']}: {tail[0] if tail else 'no output'}"
    return row


def judge(w: Workload, row: dict) -> dict:
    """Set row["error"] for a solve that failed in any way the issue lists."""
    if row["error"] is not None:
        return row
    runs = row["record"]["runs"]
    bad = [r for r in runs if r["rc"] != 0]
    if bad:
        row["error"] = f"cli.main returned {bad[0]['rc']} for {' '.join(bad[0]['argv'])}"
        return row
    try:
        outputs = [json.loads(r["out"]) for r in runs]
        row["error"] = w.check(outputs)
    except (KeyError, TypeError, ValueError) as exc:
        row["error"] = f"unreadable output: {exc!r}"
    return row


def solve(w: Workload, mode: str, cli_seed: int, deadline: float) -> dict:
    row = judge(w, run_worker(mode, w.argvs, cli_seed, deadline - time.monotonic()))
    rec = row["record"] or {}
    out = json.loads(rec["runs"][0]["out"]) if row["error"] is None else {}
    print(json.dumps({
        "row": mode, "cli_seed": cli_seed, "status": row["status"], "error": row["error"],
        "setup_s": rec.get("setup_s"), "wall_s": rec.get("wall_s"),
        "peak_rss_mb": rec.get("peak_rss_mb"), "cells_used": out.get("cells_used"),
    }))
    return row


def _quartiles(xs: list) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4g} q3={q3:.4g} min={min(xs):.4g} max={max(xs):.4g}"


def machine_facts(rows: list) -> str:
    rec = next((r["record"] for r in rows if r["record"]), {})
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"numpy={rec.get('numpy')} blas_threads={rec.get('blas_threads')} "
            f"python={sys.version.split()[0]} mem_cap_mb={MEM_CAP_MB}")


def speed_probe(deadline: float) -> dict:
    row = run_worker("speed", [], None, deadline - time.monotonic())
    if row["error"] is not None:
        raise SystemExit(f"speed probe failed: {row['error']}")
    return row["record"]


def setup_probe(w: Workload, deadline: float) -> float:
    row = run_worker("setup", w.argvs, REFERENCE_CLI_SEED, deadline - time.monotonic())
    if row["error"] is not None or row["record"]["setup_s"] is None:
        raise SystemExit(f"set-up probe failed: {row['error']}")
    return row["record"]["setup_s"]


def end_to_end(w: Workload, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    # One checked solve on the input --seed selects; its time is not in
    # wall_s because its amount of work depends on the seed.
    rows = [solve(w, "solve", seed, deadline)]
    # Timed solves alternate with a machine-speed probe, so each solve has a
    # probe on either side.  Set-up probes follow each solve, spreading the
    # set-up samples over the whole run.
    timed, speeds, setups = [], [speed_probe(deadline)], []
    start = time.monotonic()
    while len(timed) < MIN_TIMED_SOLVES or time.monotonic() - start < seconds:
        timed.append(solve(w, "solve", REFERENCE_CLI_SEED, deadline))
        speeds.append(speed_probe(deadline))
        setups += [setup_probe(w, deadline) for _ in range(SETUP_PROBES_PER_SOLVE)]
    rows += timed

    done = [(r["record"], (a["speed_s"] + b["speed_s"]) / 2)
            for r, a, b in zip(timed, speeds, speeds[1:]) if r["record"]]
    if len({tuple(run["out"] for run in rec["runs"]) for rec, _ in done}) > 1:
        timed[-1]["error"] = "repeated solves of one input gave different output"
    if not done:
        return rows, {}
    setups += [r["record"]["setup_s"] for r in rows if r["record"]]
    scale = STARTUP_REF_S / statistics.median(p["startup_s"] for p in speeds)
    samples = {
        "setup_s": ([x * scale for x in setups], "s"),
        "wall_s": ([rec["wall_s"] * SPEED_REF_S / speed for rec, speed in done], "s"),
        "peak_rss_mb": ([rec["peak_rss_mb"] for rec, _ in done], "MB"),
        "raw setup_s": (setups, "s"),
        "raw wall_s": ([rec["wall_s"] for rec, _ in done], "s"),
        "speed probe": ([p["speed_s"] for p in speeds], "s"),
        "probe start": ([p["startup_s"] for p in speeds], "s"),
    }
    for name, (xs, unit) in samples.items():
        print(f"{name:12s} {statistics.median(xs):.4f} {unit:3s} {_quartiles(xs)}")
    return rows, {k: {"value": statistics.median(samples[k][0]), "unit": samples[k][1]}
                  for k in ("setup_s", "wall_s", "peak_rss_mb")}


#: Units of the per-layer metrics that are not times in seconds.
PER_LAYER_UNITS = {
    "partition.cells_per_gauge_point": "cells/point",
    "integrator.abs_error": "1",
    "integrator.spread": "1",
}


def per_layer(w: Workload, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    plain, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACE_ROUNDS or time.monotonic() - start < seconds:
        plain.append(solve(w, "solve", seed, deadline))
        traced.append(solve(w, "trace", seed, deadline))
    rows = plain + traced
    if not all(r["record"] and r["record"]["runs"] for r in rows):
        return rows, {}

    summaries = [r["record"]["trace"] for r in traced]
    first = summaries[0]
    calls = first["calls"]
    for name in w.fires:
        if not calls.get(name):
            traced[0]["error"] = f"layer wrapper {name} never fired"
    if calls.get("partition.validate.calls") != calls.get("partition.build.calls"):
        traced[0]["error"] = "partition validations and builds differ in number"
    for s in summaries[1:]:
        for name in DETERMINISTIC_COUNTS:
            if s[name] != first[name]:
                traced[-1]["error"] = f"{name} differs between traced solves of one input"
    for i in range(len(w.argvs)):
        if len({r["record"]["runs"][i]["out"] for r in rows}) != 1:
            traced[-1]["error"] = "tracing changed the CLI output"

    outputs = [json.loads(run["out"]) for run in plain[0]["record"]["runs"]]
    if w.exact is not None:
        (res,) = outputs
        abs_error, spread = abs(res["value"] - w.exact), res["spread"]
    else:
        abs_error = max(rep["worst_deviation"] for rep in outputs)
        spread = first["sum_range"]

    # Times are medians over the traced solves; counts are equal across them.
    metrics = {
        name: statistics.median(s[name] for s in summaries) if name.endswith("_s") else value
        for name, value in first.items() if name not in ("calls", "sum_range")
    }
    metrics["integrator.abs_error"] = abs_error
    metrics["integrator.spread"] = spread
    metrics["trace.overhead_s"] = (
        statistics.median(r["record"]["wall_s"] for r in traced)
        - statistics.median(r["record"]["wall_s"] for r in plain)
    )
    units = {k: PER_LAYER_UNITS.get(k, "s" if k.endswith("_s") else "count") for k in metrics}
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(f"cli_seed={seed} integrator.levels={first['integrator.levels']} "
          f"partition.cells_total={first['partition.cells_total']}")
    return rows, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gaugequad", "cli.py")):
        print(f"error: no gaugequad source under {ROOT}/src", file=sys.stderr)
        return 2

    w = WORKLOADS[ns.workload]
    print(f"workload={ns.workload} seed={ns.seed} trace={ns.trace} "
          f"reference_cli_seed={REFERENCE_CLI_SEED}")
    measure = per_layer if ns.trace else end_to_end
    rows, metrics = measure(w, ns.seed, ns.seconds, time.monotonic() + RUN_DEADLINE_S)
    print(machine_facts(rows))
    failed = sum(r["error"] is not None for r in rows)
    for r in rows:
        if r["error"]:
            print(f"FAILED {r['mode']} cli_seed={r['cli_seed']}: {r['error']}", file=sys.stderr)
    print(f"{'failed_frac':12s} {failed / len(rows):.4f} 1   {failed} of {len(rows)} solves")
    if not metrics:
        print("error: no solve produced metrics", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
