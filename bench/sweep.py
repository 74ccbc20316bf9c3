"""Opt-in scaling sweep of `integrate f` over the tolerance.

    python3 bench/sweep.py

Solves `integrate f --seed 0` at each tolerance below, each in its own
worker process under run.py's memory cap, and prints one row per tolerance:
exit status, cells in the deterministic partition (cells_final), wall_s and
peak_rss_mb.  A solve stopped by the cap (MemoryError) or killed by a signal
is a row with its exit status, not a dead sweep.  The sweep is not a gated
workload; it puts the eps^-2 growth of the cell count on record.
"""
from __future__ import annotations

import json

from run import MEM_CAP_MB, run_worker

TOLS = ("3e-3", "1e-3", "3e-4", "1e-4")
TIMEOUT_S = 900.0


def main() -> None:
    print(f"integrate f --seed 0, memory cap {MEM_CAP_MB} MB")
    print(f"{'tol':>6} {'status':>8} {'cells_final':>12} {'wall_s':>8} {'peak_rss_mb':>11}  error")
    rows = []
    for tol in TOLS:
        row = run_worker("solve", [["integrate", "f", "--tol", tol]], 0, TIMEOUT_S)
        rec = row["record"] or {}
        out = json.loads(rec["runs"][0]["out"]) if rec.get("runs") else {}
        if rec and rec["runs"][0]["rc"] != 0:
            row["error"] = f"cli.main returned {rec['runs'][0]['rc']}"
        result = {
            "tol": float(tol),
            "status": row["status"],
            "cells_final": out.get("cells_used"),
            "wall_s": rec.get("wall_s"),
            "peak_rss_mb": rec.get("peak_rss_mb"),
            "elapsed_s": row["elapsed_s"],
            "error": row["error"],
        }
        rows.append(result)
        wall = f"{result['wall_s']:.2f}" if result["wall_s"] is not None else "-"
        rss = f"{result['peak_rss_mb']:.0f}" if result["peak_rss_mb"] is not None else "-"
        print(f"{tol:>6} {row['status']:>8} {str(result['cells_final'] or '-'):>12} "
              f"{wall:>8} {rss:>11}  {row['error'] or ''}", flush=True)
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
