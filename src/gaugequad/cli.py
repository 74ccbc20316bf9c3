"""Command-line front end.

Subcommands: integrate (built-in integrand menu), figures (CSV samples of
the four hallmark curves), loops (root/area table with divergence
bookkeeping), converge (criterion checkers), demo (headline walkthrough).

Exit codes: 0 success, 1 usage error (including an --out that cannot be
written and a loops --n-max over its cap), 2 non-convergence (including a
gauge too fine for the bisection depth) or failed check.
CSV output uses 17 significant digits so doubles round-trip; identical
configurations (including seed) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import oscillator
from .criteria import check_criterion1, check_criterion2, check_criterion3
from .errors import DepthExceeded, GaugeQuadError
from .integrator import (
    IntegralEstimate,
    gauge_integrate,
    smooth_gauge_family,
    sum_defect,
)
from .partition import Interval, cousin_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

_POLY_NAMES = tuple(f"poly-{k}" for k in range(6))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def build_parser() -> _Parser:
    parser = _Parser(prog="gaugequad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, accuracy_flag="--tol", formats=True):
        p.add_argument(accuracy_flag, type=float, default=1e-3)
        p.add_argument("--trials", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        if formats:
            p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", type=str, default=None)

    p_int = sub.add_parser("integrate", help="integrate a built-in function")
    p_int.add_argument("function", choices=("f", "fj", "F-defect") + _POLY_NAMES)
    p_int.add_argument("--j", type=int, default=None)
    common(p_int)

    p_fig = sub.add_parser("figures", help="emit CSV samples of a figure curve")
    p_fig.add_argument("which", choices=("1", "2", "3", "4"))
    p_fig.add_argument("--x-min", type=float, default=0.01)
    p_fig.add_argument("--x-max", type=float, default=1.0)
    p_fig.add_argument("--count", type=int, default=1000)
    p_fig.add_argument("--out", type=str, default=None)

    p_loops = sub.add_parser("loops", help="loop root/area table")
    p_loops.add_argument("--n-max", type=int, default=20)
    p_loops.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_loops.add_argument("--out", type=str, default=None)

    p_conv = sub.add_parser("converge", help="run convergence-criterion checkers")
    p_conv.add_argument("which", choices=("1", "2", "3", "all"))
    common(p_conv, "--eps")

    p_demo = sub.add_parser("demo", help="headline walkthrough")
    common(p_demo, formats=False)  # demo prints one text walkthrough

    return parser


def _validate(ns) -> None:
    """Every usage check, in order."""
    if ns.command in ("integrate", "converge", "demo"):
        name = "eps" if ns.command == "converge" else "tol"
        accuracy = getattr(ns, name)
        if not (math.isfinite(accuracy) and accuracy > 0.0):
            raise _UsageError(f"--{name} must be positive")
        if ns.trials < 2:
            raise _UsageError("--trials must be >= 2")
        if ns.seed < 0:
            raise _UsageError(f"--seed must be >= 0, got {ns.seed}")
    if ns.command == "integrate":
        if ns.function == "fj" and ns.j is None:
            raise _UsageError("integrate fj requires --j")
        if ns.j is not None and ns.j < 1:
            raise _UsageError("--j must be >= 1")
        if ns.j is not None and ns.j > 2**53:  # f_j, its gauge and F_j use float(j)
            raise _UsageError("--j must be <= 2**53")
        if ns.j is not None and ns.function != "fj":
            raise _UsageError("--j applies only to integrate fj")
    elif ns.command == "figures":
        if not 0.0 < ns.x_min < ns.x_max <= 1.0:
            raise _UsageError("need 0 < --x-min < --x-max <= 1")
        if ns.count < 2:
            raise _UsageError("--count must be >= 2")
        if ns.count > 10**6:  # 10**6 rows take about 0.3 GB, 10**7 about 2.7 GB
            raise _UsageError("--count must be <= 1000000")
    elif ns.command == "loops":
        if ns.n_max < 2:
            raise _UsageError("--n-max must be >= 2")
        if ns.n_max > 10**6:  # 10**6 rows take 0.7-1.0 GB and 8-14 s, 10**7 about 10 GB
            raise _UsageError("--n-max must be <= 1000000")
    if ns.out:  # before the solve, creating nothing; _emit still reports a failed write
        folder = os.path.dirname(ns.out) or "."
        reason = (
            errno.EISDIR if os.path.isdir(ns.out)
            else errno.ENOENT if not os.path.isdir(folder)
            else errno.EACCES if not os.access(ns.out if os.path.exists(ns.out) else folder, os.W_OK)
            else None
        )
        if reason:
            raise _UsageError(f"cannot write --out {ns.out}: {os.strerror(reason)}")


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _render(payloads: list, fmt: str, csv_keys: Sequence[str]) -> str:
    """json: the payload, or a list of several; csv: a csv_keys header and
    one row per payload, blank where a key is missing; table: `key = value`
    lines, payloads separated by a blank line."""
    if fmt == "json":
        return json.dumps(payloads if len(payloads) > 1 else payloads[0]) + "\n"
    if fmt == "csv":
        lines = [",".join(csv_keys)]
        for p in payloads:
            cells = (p.get(k, "") for k in csv_keys)
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in cells))
        return "\n".join(lines) + "\n"
    blocks = ("\n".join(f"{k} = {v}" for k, v in p.items()) for p in payloads)
    return "\n\n".join(blocks) + "\n"


def _integrand(ns):
    """integrate's (integrand, gauge family, closed form) for ns.function."""
    if ns.function == "fj":
        return (
            functools.partial(oscillator.f_j, ns.j),
            oscillator.truncated_gauge_family(ns.j),
            oscillator.exact_integral_fj(ns.j),
        )
    if ns.function.startswith("poly-"):
        k = int(ns.function.split("-")[1])
        return (lambda x: x**k), smooth_gauge_family(), 1.0 / (k + 1)
    # f, and F-defect, whose closed form is the defect's target 0
    oracle = oscillator.exact_integral_f() if ns.function == "f" else 0.0
    return oscillator.f, oscillator.loop_gauge_family(), oracle


def cmd_integrate(ns) -> int:
    integrand, family, oracle = _integrand(ns)
    domain = Interval(0.0, 1.0)
    if ns.function == "F-defect":
        # defect of the primitive increment against one cousin Riemann sum
        p = cousin_partition(domain, family.at(ns.tol))
        defect = sum_defect(oscillator.F, integrand, p)
        est = IntegralEstimate(defect, 0.0, len(p), 1, defect < ns.tol)
    else:
        est = gauge_integrate(integrand, family, domain, ns.tol, trials=ns.trials, seed=ns.seed)
    error = abs(est.value - oracle)
    payload = dict(function=ns.function, **dataclasses.asdict(est), oracle=oracle, abs_error=error)
    _emit(_render([payload], ns.format, list(payload)), ns.out)
    return EXIT_OK if est.converged and error <= ns.tol else EXIT_NOT_CONVERGED


def cmd_figures(ns) -> int:
    rows = oscillator.figure_samples(f"fig{ns.which}", ns.x_min, ns.x_max, ns.count)
    text = "x,y\n" + "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in rows)
    _emit(text, ns.out)
    return EXIT_OK


def cmd_loops(ns) -> int:
    n = np.arange(1, ns.n_max + 1)
    area = oscillator.loop_area_estimate(n)
    is_even = n % 2 == 0
    # cumsum adds in order, as a running float total does
    even = np.cumsum(np.where(is_even, area, 0.0))
    odd = np.cumsum(np.where(is_even, 0.0, area))
    alt = np.cumsum(np.where(is_even, area, -area))
    over = np.flatnonzero(even > 1.0)
    first_even_over_1 = int(n[over[0]]) if over.size else None
    rows = list(zip(*(a.tolist() for a in (n, oscillator.loop_root(n), area, even, odd, alt))))
    bracket = oscillator.loop_area_estimate(ns.n_max + 1)
    footer_even = (
        f"first even-partial-sum > 1.0 at n = {first_even_over_1}"
        if first_even_over_1 is not None
        else f"even partial sum {_fmt(rows[-1][3])} has not exceeded 1.0 by n = {ns.n_max}"
    )
    footer_bracket = f"alternating bracket width a_(n_max+1) = {_fmt(bracket)}"

    header = ("n", "root", "area", "even_partial", "odd_partial", "alternating_partial")
    records = (dict(zip(header, r)) for r in rows)  # only json and csv read them
    if ns.format == "json":
        payload = {
            "rows": list(records),
            "first_even_partial_over_1": first_even_over_1,
            "alternating_bracket_width": bracket,
        }
        text = _render([payload], "json", header)
    elif ns.format == "csv":
        text = _render(records, "csv", header) + f"# {footer_even}\n# {footer_bracket}\n"
    else:
        lines = ["  ".join(f"{h:>20}" for h in header)]
        lines += [f"{r[0]:>20d}  " + "  ".join(f"{v:>20.12g}" for v in r[1:]) for r in rows]
        text = "\n".join([*lines, footer_even, footer_bracket]) + "\n"
    _emit(text, ns.out)
    return EXIT_OK


def cmd_converge(ns) -> int:
    sin1 = oscillator.exact_integral_f()
    fam = oscillator.integrand_family()
    payloads = []
    if ns.which in ("1", "all"):
        rep = check_criterion1(
            fam,
            oscillator.loop_gauge_family(),
            oscillator.index_selector(),
            alpha1=sin1,
            eps=ns.eps,
            trials=ns.trials,
            seed=ns.seed,
        )
        payloads.append({"criterion": "criterion1", **dataclasses.asdict(rep)})
    if ns.which in ("2", "all"):
        q = math.ceil(1.0 / math.sqrt(ns.eps))
        rep = check_criterion2(
            fam,
            gauge_for=lambda j: oscillator.truncated_gauge_family(j).at(0.5 * ns.eps),
            alpha2=sin1,
            eps=ns.eps,
            q=q,
            j_list=[q + 1, 2 * q, 10 * q],
            trials=ns.trials,
            seed=ns.seed,
        )
        payloads.append({"criterion": "criterion2", **dataclasses.asdict(rep)})
    if ns.which in ("3", "all"):
        agree = check_criterion3(sin1, sin1, 1e-9)
        payloads.append(
            dict(criterion="criterion3", alpha1=sin1, alpha2=sin1, tol=1e-9, passed=agree)
        )
    keys = sorted({k for p in payloads for k in p})
    _emit(_render(payloads, ns.format, keys), ns.out)
    return EXIT_OK if all(p["passed"] for p in payloads) else EXIT_NOT_CONVERGED


def cmd_demo(ns) -> int:
    sin1 = oscillator.exact_integral_f()
    est = gauge_integrate(
        oscillator.f, oscillator.loop_gauge_family(), Interval(0.0, 1.0), ns.tol,
        trials=ns.trials, seed=ns.seed,
    )
    error = abs(est.value - sin1)
    lines = [
        "gauge integral of 2x sin(1/x^2) - (2/x) cos(1/x^2) on [0, 1]",
        f"estimate  = {est.value!r} (spread {est.spread:.3g}, "
        f"{est.cells_used} cells, converged={est.converged})",
        f"sin(1)    = {sin1!r}",
        f"abs error = {error:.3g}",
        "",
        "first loops (root, signed area magnitude):",
    ]
    for n in range(1, 9):
        lines.append(
            f"  n={n}: root={oscillator.loop_root(n):.6f} "
            f"a_n={oscillator.loop_area_estimate(n):.6f}"
        )
    lines.append("")
    lines.append(
        "limit comparison: alpha1 = alpha2 = sin 1 -> "
        f"{check_criterion3(sin1, sin1, 1e-9)}"
    )
    _emit("\n".join(lines) + "\n", ns.out)
    return EXIT_OK if est.converged and error <= ns.tol else EXIT_NOT_CONVERGED


_COMMANDS = {
    "integrate": cmd_integrate,
    "figures": cmd_figures,
    "loops": cmd_loops,
    "converge": cmd_converge,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        _validate(ns)
        return _COMMANDS[ns.command](ns)
    except (_UsageError, GaugeQuadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED if isinstance(exc, DepthExceeded) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
