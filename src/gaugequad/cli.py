"""Command-line front end.

Subcommands: integrate (built-in integrand menu), figures (CSV samples of
the four hallmark curves), loops (root/area table with divergence
bookkeeping), converge (criterion checkers), demo (headline walkthrough).

Every command writes its output to stdout, once, after its work is done.
Exit codes: 0 success, 1 usage error (including a loops --n-max over its
cap), 2 non-convergence (including a gauge too fine for the bisection depth
and a solve that runs out of memory) or failed check.
CSV output uses 17 significant digits so doubles round-trip; identical
configurations (including seed) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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

    p_int = sub.add_parser("integrate", help="integrate a built-in function")
    p_int.add_argument("function", choices=("f", "fj", "F-defect") + _POLY_NAMES)
    p_int.add_argument("--j", type=int, default=None)
    common(p_int)

    p_fig = sub.add_parser("figures", help="emit CSV samples of a figure curve")
    p_fig.add_argument("which", choices=("1", "2", "3", "4"))
    p_fig.add_argument("--x-min", type=float, default=0.01)
    p_fig.add_argument("--x-max", type=float, default=1.0)
    p_fig.add_argument("--count", type=int, default=1000)

    p_loops = sub.add_parser("loops", help="loop root/area table")
    p_loops.add_argument("--n-max", type=int, default=20)
    p_loops.add_argument("--format", choices=("table", "csv", "json"), default="table")

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
        if ns.j is not None and ns.j > 2**53:  # f_j, its gauge and its closed form use float(j)
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


def _integrand(function: str, j: Optional[int]):
    """(integrand, gauge family, closed form) for the menu entry `function`."""
    if function == "fj":
        return (
            functools.partial(oscillator.f_j, j),
            oscillator.truncated_gauge_family(j),
            oscillator.exact_integral_fj(j),
        )
    if function.startswith("poly-"):
        k = int(function.split("-")[1])
        return (lambda x: x**k), smooth_gauge_family(), 1.0 / (k + 1)
    # f, and F-defect, whose closed form is the defect's target 0
    oracle = oscillator.exact_integral_f() if function == "f" else 0.0
    return oscillator.f, oscillator.loop_gauge_family(), oracle


def _solve(ns, function: str, j: Optional[int] = None):
    """(estimate, closed form, abs error, exit code) of integrating the menu
    entry `function` at ns's tol, trials and seed."""
    integrand, family, oracle = _integrand(function, j)
    domain = Interval(0.0, 1.0)
    if function == "F-defect":
        # defect of the primitive increment against one cousin Riemann sum
        p = cousin_partition(domain, family.at(ns.tol))
        defect = sum_defect(oscillator.F, integrand, p)
        est = IntegralEstimate(defect, 0.0, len(p), 1, defect < ns.tol)
    else:
        est = gauge_integrate(integrand, family, domain, ns.tol, trials=ns.trials, seed=ns.seed)
    error = abs(est.value - oracle)
    return est, oracle, error, EXIT_OK if est.converged and error <= ns.tol else EXIT_NOT_CONVERGED


def cmd_integrate(ns) -> tuple[str, int]:
    est, oracle, error, code = _solve(ns, ns.function, ns.j)
    payload = dict(function=ns.function, **dataclasses.asdict(est), oracle=oracle, abs_error=error)
    return _render([payload], ns.format, list(payload)), code


def cmd_figures(ns) -> tuple[str, int]:
    rows = oscillator.figure_samples(f"fig{ns.which}", ns.x_min, ns.x_max, ns.count)
    return "x,y\n" + "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in rows), EXIT_OK


def cmd_loops(ns) -> tuple[str, int]:
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
    return text, EXIT_OK


def cmd_converge(ns) -> tuple[str, int]:
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
    code = EXIT_OK if all(p["passed"] for p in payloads) else EXIT_NOT_CONVERGED
    return _render(payloads, ns.format, keys), code


def cmd_demo(ns) -> tuple[str, int]:
    est, sin1, error, code = _solve(ns, "f")
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
    return "\n".join(lines) + "\n", code


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
        text, code = _COMMANDS[ns.command](ns)
    except (_UsageError, GaugeQuadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED if isinstance(exc, DepthExceeded) else EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError too, from either thread
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
