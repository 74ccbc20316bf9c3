"""The oscillatory example family and its gauges.

f(x) = 2x sin(1/x^2) - (2/x) cos(1/x^2) on (0, 1], f(0) = 0, with primitive
F(x) = x^2 sin(1/x^2).  f is unbounded near 0 but F(1) - F(0) = sin 1, so f
is gauge integrable while failing both Riemann and absolute integrability.
f_j truncates f to 0 below 1/j; F_j likewise truncates F.

The graph of f oscillates in loops between consecutive roots
sqrt(2/((2n+1)pi)) of its dominant cosine term; `loop_gauge` is the
structural gauge that confines each partition cell to one loop, and
`loop_gauge_family` sharpens it with an accuracy-scale term so sampled
Riemann sums actually meet a requested tolerance.

Pointwise caution: below x ~ 1e-7 the phase 1/x^2 exceeds 1e14 and
evaluated values of sin/cos are phase-unreliable.  The gauges confine such
points to the single tag-0 cell (value 0) or to cells of length O(x^3), so
integration never depends on those phases.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .criteria import IndexSelector, IntegrandFamily
from .errors import DomainError
from .integrator import GaugeFamily
from .partition import Gauge, Interval

__all__ = [
    "f",
    "f_j",
    "F",
    "F_j",
    "loop_root",
    "loop_area_estimate",
    "loop_gauge",
    "loop_gauge_family",
    "truncated_gauge_family",
    "exact_integral_f",
    "exact_integral_fj",
    "figure_samples",
    "integrand_family",
    "index_selector",
]

#: Relative floor applied to integration-family gauges: keeps randomized
#: bisection from chasing the gauge's zeros at loop roots below the scale
#: where cells contribute O(len^2) ~ 1e-16 anyway.
_REL_FLOOR = 1e-8

_FIGURES = ("fig1", "fig2", "fig3", "fig4")


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_domain(arr: np.ndarray) -> None:
    if not np.all((arr >= 0.0) & (arr <= 1.0) & np.isfinite(arr)):
        raise DomainError("argument outside [0, 1]")


def _sin_term(x: np.ndarray) -> np.ndarray:
    # figure 1: 2x sin(1/x^2)
    return 2.0 * x * np.sin(1.0 / (x * x))


def _cos_term(x: np.ndarray) -> np.ndarray:
    # figure 2: (2/x) cos(1/x^2)
    return (2.0 / x) * np.cos(1.0 / (x * x))


def _raw_f(x: np.ndarray) -> np.ndarray:
    # x > 0 assumed; written as fig1 - fig2 so the identities are bitwise
    return _sin_term(x) - _cos_term(x)


def _raw_F(x: np.ndarray) -> np.ndarray:
    # figure 4, x > 0 assumed: x^2 sin(1/x^2)
    return x * x * np.sin(1.0 / (x * x))


def _truncated(kernel, x, j=None):
    """kernel on the live points of x and 0 elsewhere; scalar in, scalar out.

    Live means x > 0, or x >= 1/j when a truncation index j (a positive
    integer or an integer array aligned with x) is given.
    """
    if j is not None and not np.all(np.asarray(j) >= 1):
        raise ValueError("truncation index must be >= 1")
    arr, scalar = _as_array(x)
    _check_domain(arr)
    if j is None:
        live = arr > 0.0
    else:
        jarr = np.asarray(j, dtype=float)
        arr = np.broadcast_to(arr, np.broadcast_shapes(arr.shape, jarr.shape))
        live = arr >= 1.0 / jarr
    out = np.zeros(arr.shape)
    out[live] = kernel(arr[live])
    return float(out) if scalar and out.ndim == 0 else out


def f(x):
    """The example integrand; 0 at x = 0.  Accepts scalars or arrays."""
    return _truncated(_raw_f, x)


def f_j(j, x):
    """Truncated integrand: f(x) for x >= 1/j, else 0.

    j may be a positive integer or an integer array aligned with x.
    """
    return _truncated(_raw_f, x, j)


def F(x):
    """Primitive of f: x^2 sin(1/x^2), 0 at x = 0."""
    return _truncated(_raw_F, x)


def F_j(j, x):
    """Truncated primitive: F(x) for x >= 1/j, else 0."""
    return _truncated(_raw_F, x, j)


def loop_root(n):
    """n-th root of the cosine term: sqrt(2 / ((2n+1) pi)); decreasing in n."""
    narr = np.asarray(n, dtype=float)
    out = np.sqrt(2.0 / ((2.0 * narr + 1.0) * math.pi))
    return float(out) if out.ndim == 0 else out


def loop_area_estimate(n):
    """Signed-loop-area magnitude a_n = (2/pi) (1/(2n+1) + 1/(2n+3))."""
    narr = np.asarray(n, dtype=float)
    out = (2.0 / math.pi) * (1.0 / (2.0 * narr + 1.0) + 1.0 / (2.0 * narr + 3.0))
    return float(out) if out.ndim == 0 else out


def _tent_delta(x: np.ndarray, eps_scale: float) -> np.ndarray:
    """Structural loop gauge on an array of points.

    Between adjacent roots: half the distance to the nearer root.  At a
    root: half of min(root, gap to the next smaller root).  At 0 (and as a
    cap everywhere): eps_scale.  An 8-ulp floor keeps the rule
    representable right next to root floats.
    """
    out = np.full_like(x, eps_scale)
    r1 = loop_root(1)

    pos = (x > 0.0) & (x < r1)
    if pos.any():
        xp = x[pos]
        k = np.floor(1.0 / (xp * xp) / math.pi - 0.5)
        k = np.maximum(k, 1.0)
        rk = loop_root(k)
        k = np.where(rk < xp, np.maximum(k - 1.0, 1.0), k)
        rk = loop_root(k)
        rk1 = loop_root(k + 1.0)
        shift = rk1 > xp
        if shift.any():
            k = np.where(shift, k + 1.0, k)
            rk = loop_root(k)
            rk1 = loop_root(k + 1.0)
        n_at = np.where(xp == rk, k, k + 1.0)
        at_root = (xp == rk) | (xp == rk1)
        r_at = loop_root(n_at)
        s = np.where(
            at_root,
            0.5 * np.minimum(r_at, r_at - loop_root(n_at + 1.0)),
            0.5 * np.minimum(xp - rk1, rk - xp),
        )
        s = np.maximum(s, 8.0 * np.spacing(xp))
        out[pos] = np.minimum(eps_scale, s)

    hi = x >= r1
    if hi.any():
        xh = x[hi]
        s = np.where(
            xh == r1,
            0.5 * np.minimum(r1, r1 - loop_root(2)),
            0.5 * (xh - r1),
        )
        s = np.maximum(s, 8.0 * np.spacing(xh))
        out[hi] = np.minimum(eps_scale, s)
    return out


def loop_gauge(eps_scale: float) -> Gauge:
    """The loop-structure gauge capped at eps_scale; at 0 it equals eps_scale.

    Any partition fine for this gauge keeps every positively-tagged cell
    inside a single loop (up to the ulp-level floor) and must carry exactly
    one cell tagged at 0, which is how ordered loop-by-loop cancellation of
    the unbounded oscillation is enforced.
    """
    if eps_scale <= 0.0:
        raise ValueError("eps_scale must be positive")

    def delta(x):
        arr, scalar = _as_array(x)
        out = _tent_delta(arr, eps_scale)
        return float(out) if scalar else out

    return Gauge(delta)


def loop_gauge_family() -> GaugeFamily:
    """Accuracy-parameterized family of loop gauges for integrating f.

    at(eps) refines loop_gauge(sqrt(eps/2)) with the derivative scale
    2*eps*x^3 that the telescoping defect bound requires, floored at
    1e-8 x for float practicality.  The square-root cap at 0 balances the
    tag-0 cell's own contribution |F(len)| <= len^2 against eps.
    """

    def at(eps: float) -> Gauge:
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        h = math.sqrt(0.5 * eps)

        def delta(x, _h=h, _eps=eps):
            arr, scalar = _as_array(x)
            tent = _tent_delta(arr, _h)
            cube = 2.0 * _eps * arr * arr * arr
            out = np.where(
                arr > 0.0,
                np.maximum(np.minimum(tent, cube), _REL_FLOOR * arr),
                _h,
            )
            return float(out) if scalar else out

        return Gauge(delta)

    return GaugeFamily(at)


def truncated_gauge_family(j: int) -> GaugeFamily:
    """Per-index family for integrating f_j.

    Coarse below the jump at 1/j (where f_j vanishes), packing toward the
    jump like half the remaining distance; above it, an x^2-scaled rule
    tuned so sampled-sum noise stays below eps/4.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    jump = 1.0 / j

    def at(eps: float) -> Gauge:
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        a = 0.31 * eps ** (2.0 / 3.0) / j ** (1.0 / 3.0)
        lid = min(0.25 * jump, 0.5 * math.sqrt(eps))

        def delta(x, _a=a, _lid=lid):
            arr, scalar = _as_array(x)
            below = np.minimum((jump - arr) * 0.5, _lid)
            above = _a * arr * arr
            out = np.where(arr < jump, below, above)
            out = np.maximum(out, _REL_FLOOR * arr)
            out[arr == 0.0] = _lid
            return float(out) if scalar else out

        return Gauge(delta)

    return GaugeFamily(at)


def exact_integral_f() -> float:
    """Closed form of the integral of f over [0, 1]: sin 1."""
    return math.sin(1.0)


def exact_integral_fj(j: int) -> float:
    """Closed form for f_j: sin 1 - sin(j^2) / j^2."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return math.sin(1.0) - math.sin(float(j) ** 2) / float(j) ** 2


def figure_samples(which, x_min: float, x_max: float, count: int):
    """Uniform samples (x, y) of one of the four hallmark curves.

    fig1: 2x sin(1/x^2)        fig2: (2/x) cos(1/x^2)
    fig3: fig1 - fig2 (= f)    fig4: x^2 sin(1/x^2) (= F)
    """
    name = f"fig{which}" if not str(which).startswith("fig") else str(which)
    if name not in _FIGURES:
        raise DomainError(f"unknown figure {which!r}")
    if not 0.0 < x_min < x_max <= 1.0:
        raise DomainError(f"need 0 < x_min < x_max <= 1, got [{x_min}, {x_max}]")
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    xs = np.linspace(x_min, x_max, count)
    if name == "fig1":
        ys = _sin_term(xs)
    elif name == "fig2":
        ys = _cos_term(xs)
    elif name == "fig3":
        ys = _raw_f(xs)
    else:
        ys = _raw_F(xs)
    return list(zip(xs.tolist(), ys.tolist()))


def integrand_family() -> IntegrandFamily:
    """The truncation family (f_j) with limit f, as an IntegrandFamily."""
    return IntegrandFamily(
        member=lambda j: (lambda x, _j=j: f_j(_j, x)),
        limit=f,
        domain=Interval(0.0, 1.0),
        member_at=f_j,
    )


def index_selector() -> IndexSelector:
    """Threshold ceil(1/x) (1 at x = 0): beyond it f_j(x) = f(x) exactly."""

    def threshold(x):
        arr, scalar = _as_array(x)
        out = np.ones_like(arr)
        pos = arr > 0.0
        out[pos] = np.ceil(1.0 / arr[pos])
        out = out.astype(np.int64)
        return int(out) if scalar else out

    return IndexSelector(threshold)
