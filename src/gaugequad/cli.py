"""Command-line front end.

Subcommands: integrate (built-in integrand menu), figures (CSV samples of
the four hallmark curves), loops (root/area table with divergence
bookkeeping), converge (criterion checkers), demo (headline walkthrough).

Exit codes: 0 success, 1 usage error, 2 non-convergence or failed check.
CSV output uses 17 significant digits so doubles round-trip; identical
configurations (including seed) produce byte-identical output for a fixed
BLAS thread count.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import oscillator
from .criteria import check_criterion1, check_criterion2, check_criterion3
from .errors import GaugeQuadError
from .integrator import (
    IntegralEstimate,
    gauge_integrate,
    smooth_gauge_family,
    sum_defect,
)
from .partition import DEFAULT_MAX_DEPTH, Interval, cousin_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

SIN1 = math.sin(1.0)

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

    def common(p, accuracy_flag="--tol"):
        p.add_argument(accuracy_flag, type=float, default=1e-3)
        p.add_argument("--trials", type=int, default=4)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
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
    common(p_demo)

    return parser


def _resolve_seed(ns) -> int:
    if getattr(ns, "seed", None) is not None:
        return ns.seed
    env = os.environ.get("GAUGEQUAD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"GAUGEQUAD_SEED must be an integer, got {env!r}") from exc
    return 0


def _validate_run(ns) -> None:
    """Checks shared by the integrate, demo and converge options."""
    name = "eps" if ns.command == "converge" else "tol"
    accuracy = getattr(ns, name)
    if not (math.isfinite(accuracy) and accuracy > 0.0):
        raise _UsageError(f"--{name} must be positive")
    if ns.trials < 2:
        raise _UsageError("--trials must be >= 2")
    if not 8 <= ns.max_depth <= 128:
        raise _UsageError("--max-depth must be in [8, 128]")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _estimate_payload(name, est, oracle):
    payload = dict(function=name, **dataclasses.asdict(est))
    payload["oracle"] = oracle
    payload["abs_error"] = abs(est.value - oracle)
    return payload


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


def cmd_integrate(ns) -> int:
    _validate_run(ns)
    seed = _resolve_seed(ns)
    domain = Interval(0.0, 1.0)

    if ns.function == "fj" and ns.j is None:
        raise _UsageError("integrate fj requires --j")
    if ns.j is not None and ns.j < 1:
        raise _UsageError("--j must be >= 1")

    if ns.function == "F-defect":
        # defect of the primitive increment against one cousin Riemann sum
        gauge = oscillator.loop_gauge_family().at(ns.tol)
        p = cousin_partition(domain, gauge, ns.max_depth)
        defect = sum_defect(oscillator.F, oscillator.f, p)
        est = IntegralEstimate(defect, 0.0, len(p), 1, defect < ns.tol)
        oracle = 0.0
    else:
        if ns.function == "f":
            integrand = oscillator.f
            family = oscillator.loop_gauge_family()
            oracle = oscillator.exact_integral_f()
        elif ns.function == "fj":
            integrand = lambda x, _j=ns.j: oscillator.f_j(_j, x)  # noqa: E731
            family = oscillator.truncated_gauge_family(ns.j)
            oracle = oscillator.exact_integral_fj(ns.j)
        else:
            k = int(ns.function.split("-")[1])
            integrand = lambda x, _k=k: x**_k  # noqa: E731
            family = smooth_gauge_family()
            oracle = 1.0 / (k + 1)
        est = gauge_integrate(
            integrand, family, domain, ns.tol, trials=ns.trials, seed=seed,
            max_depth=ns.max_depth,
        )
    payload = _estimate_payload(ns.function, est, oracle)
    _emit(_render([payload], ns.format, list(payload)), ns.out)
    ok = est.converged and payload["abs_error"] <= ns.tol
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_figures(ns) -> int:
    if not 0.0 < ns.x_min < ns.x_max <= 1.0:
        raise _UsageError("need 0 < --x-min < --x-max <= 1")
    if ns.count < 2:
        raise _UsageError("--count must be >= 2")
    rows = oscillator.figure_samples(f"fig{ns.which}", ns.x_min, ns.x_max, ns.count)
    text = "x,y\n" + "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in rows)
    _emit(text, ns.out)
    return EXIT_OK


def cmd_loops(ns) -> int:
    if ns.n_max < 2:
        raise _UsageError("--n-max must be >= 2")
    rows = []
    even = odd = alt = 0.0
    first_even_over_1 = None
    for n in range(1, ns.n_max + 1):
        a = oscillator.loop_area_estimate(n)
        if n % 2 == 0:
            even += a
            if first_even_over_1 is None and even > 1.0:
                first_even_over_1 = n
        else:
            odd += a
        alt += a if n % 2 == 0 else -a
        rows.append((n, oscillator.loop_root(n), a, even, odd, alt))
    bracket = oscillator.loop_area_estimate(ns.n_max + 1)
    footer_even = (
        f"first even-partial-sum > 1.0 at n = {first_even_over_1}"
        if first_even_over_1 is not None
        else f"even partial sum {_fmt(even)} has not exceeded 1.0 by n = {ns.n_max}"
    )
    footer_bracket = f"alternating bracket width a_(n_max+1) = {_fmt(bracket)}"

    header = ("n", "root", "area", "even_partial", "odd_partial", "alternating_partial")
    records = [dict(zip(header, r)) for r in rows]
    if ns.format == "json":
        payload = {
            "rows": records,
            "first_even_partial_over_1": first_even_over_1,
            "alternating_bracket_width": bracket,
        }
        text = _render([payload], "json", header)
    elif ns.format == "csv":
        text = _render(records, "csv", header) + f"# {footer_even}\n# {footer_bracket}\n"
    else:
        lines = ["  ".join(f"{h:>20}" for h in header)]
        for n, r, a, e, o, al in rows:
            lines.append(
                f"{n:>20d}  " + "  ".join(f"{v:>20.12g}" for v in (r, a, e, o, al))
            )
        lines.append(footer_even)
        lines.append(footer_bracket)
        text = "\n".join(lines) + "\n"
    _emit(text, ns.out)
    return EXIT_OK


def cmd_converge(ns) -> int:
    _validate_run(ns)
    seed = _resolve_seed(ns)
    fam = oscillator.integrand_family()
    payloads = []
    all_pass = True

    if ns.which in ("1", "all"):
        rep = check_criterion1(
            fam,
            oscillator.loop_gauge_family(),
            oscillator.index_selector(),
            alpha1=SIN1,
            eps=ns.eps,
            trials=ns.trials,
            index_headroom=10,
            seed=seed,
            max_depth=ns.max_depth,
        )
        payloads.append({"criterion": "criterion1", **dataclasses.asdict(rep)})
        all_pass &= rep.passed
    if ns.which in ("2", "all"):
        q = math.ceil(1.0 / math.sqrt(ns.eps))
        rep = check_criterion2(
            fam,
            gauge_for=lambda j: oscillator.truncated_gauge_family(j).at(0.5 * ns.eps),
            alpha2=SIN1,
            eps=ns.eps,
            q=q,
            j_list=[q + 1, 2 * q, 10 * q],
            trials=ns.trials,
            seed=seed,
            max_depth=ns.max_depth,
        )
        payloads.append({"criterion": "criterion2", **dataclasses.asdict(rep)})
        all_pass &= rep.passed
    if ns.which in ("3", "all"):
        agree = check_criterion3(SIN1, SIN1, 1e-9)
        payloads.append(
            {
                "criterion": "criterion3",
                "alpha1": SIN1,
                "alpha2": SIN1,
                "tol": 1e-9,
                "passed": agree,
            }
        )
        all_pass &= agree

    keys = sorted({k for p in payloads for k in p})
    _emit(_render(payloads, ns.format, keys), ns.out)
    return EXIT_OK if all_pass else EXIT_NOT_CONVERGED


def cmd_demo(ns) -> int:
    _validate_run(ns)
    seed = _resolve_seed(ns)
    domain = Interval(0.0, 1.0)
    est = gauge_integrate(
        oscillator.f, oscillator.loop_gauge_family(), domain, ns.tol,
        trials=ns.trials, seed=seed, max_depth=ns.max_depth,
    )
    lines = [
        "gauge integral of 2x sin(1/x^2) - (2/x) cos(1/x^2) on [0, 1]",
        f"estimate  = {est.value!r} (spread {est.spread:.3g}, "
        f"{est.cells_used} cells, converged={est.converged})",
        f"sin(1)    = {SIN1!r}",
        f"abs error = {abs(est.value - SIN1):.3g}",
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
        f"{check_criterion3(SIN1, SIN1, 1e-9)}"
    )
    _emit("\n".join(lines) + "\n", ns.out)
    return EXIT_OK if est.converged and abs(est.value - SIN1) <= ns.tol else EXIT_NOT_CONVERGED


_COMMANDS = {
    "integrate": cmd_integrate,
    "figures": cmd_figures,
    "loops": cmd_loops,
    "converge": cmd_converge,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GaugeQuadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
