"""The oscillatory example family and its gauges.

f(x) = 2x sin(1/x^2) - (2/x) cos(1/x^2) on (0, 1], f(0) = 0, with primitive
F(x) = x^2 sin(1/x^2).  f is unbounded near 0 but F(1) - F(0) = sin 1, so f
is gauge integrable while failing both Riemann and absolute integrability.
f_j truncates f to 0 below 1/j.

The graph of f oscillates in loops between consecutive roots
sqrt(2/((2n+1)pi)) of its dominant cosine term; `_tent_delta` is the
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

import numpy as np

from .criteria import IndexSelector, IntegrandFamily, _positive_indices
from .errors import DomainError
from .integrator import GaugeFamily, _family
from .partition import Interval, _eval_points, _float

__all__ = [
    "f",
    "f_j",
    "F",
    "loop_root",
    "loop_area_estimate",
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

#: The phase certificate of `loop_gauge_family`: a point whose root phase q
#: has 1 <= q < eps * _PHASE_CAP and lies at least _PHASE_MARGIN * eps from
#: an integer provably has a tent above 2 eps x^3.  Proved constants.
_PHASE_MARGIN = 8.0
_PHASE_CAP = 2.0**50


def _check_domain(arr: np.ndarray) -> None:
    # nan fails both comparisons and +-inf one of them
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("argument outside [0, 1]")


def _sin_term(x: np.ndarray) -> np.ndarray:
    # figure 1: 2x sin(1/x^2)
    return 2.0 * x * np.sin(1.0 / (x * x))


def _cos_term(x: np.ndarray) -> np.ndarray:
    # figure 2: (2/x) cos(1/x^2)
    return (2.0 / x) * np.cos(1.0 / (x * x))


def _raw_f(x: np.ndarray) -> np.ndarray:
    # x > 0 assumed; fig1 - fig2 with 1/x^2 formed once, in place but with
    # the same roundings as _sin_term(x) - _cos_term(x), so the identities
    # stay bitwise
    r = 1.0 / (x * x)
    out = np.sin(r)
    out *= 2.0 * x
    r = np.cos(r, out=r)
    r *= 2.0 / x
    out -= r
    return out


def _raw_F(x: np.ndarray) -> np.ndarray:
    # figure 4, x > 0 assumed: x^2 sin(1/x^2)
    return x * x * np.sin(1.0 / (x * x))


#: The four hallmark curves by figure name.
_FIGURES = {"fig1": _sin_term, "fig2": _cos_term, "fig3": _raw_f, "fig4": _raw_F}


def _truncated(kernel, x, j=None):
    """kernel on the live points of x and 0 elsewhere; scalar in, scalar out.

    Live means x > 0, or x >= 1/j when a truncation index j (a positive
    integer or an integer array aligned with x) is given.  The kernel runs
    on every point, with each dead one replaced by 1.0, so no mask gathers
    or scatters; live points get the values and warnings they would alone,
    and dead ones never warn.
    """
    if j is not None:
        _positive_indices(j)
    arr = np.asarray(x, dtype=float)
    _check_domain(arr)
    live = arr > 0.0 if j is None else arr >= 1.0 / np.asarray(j, dtype=float)
    # ravel hands the kernels, which work in place, an array even for 0-d x
    safe = np.where(live, arr, 1.0)
    out = np.where(live, kernel(safe.ravel()).reshape(safe.shape), 0.0)
    return out.item() if out.ndim == 0 else out


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


def loop_root(n):
    """n-th root of the cosine term: sqrt(2 / ((2n+1) pi)); decreasing in n."""
    narr = np.asarray(n, dtype=float)
    out = np.sqrt(2.0 / ((2.0 * narr + 1.0) * math.pi))
    return out.item() if out.ndim == 0 else out


def loop_area_estimate(n):
    """Signed-loop-area magnitude a_n = (2/pi) (1/(2n+1) + 1/(2n+3))."""
    narr = np.asarray(n, dtype=float)
    out = (2.0 / math.pi) * (1.0 / (2.0 * narr + 1.0) + 1.0 / (2.0 * narr + 3.0))
    return out.item() if out.ndim == 0 else out


def _tent_delta(x: np.ndarray, eps_scale: float) -> np.ndarray:
    """Structural loop gauge on an array of points.

    Every x > 0 lies in one bracket r(k + 1) <= x <= r(k), where r(0) is
    +inf, so x >= r1 is the bracket k = 0.  Inside a bracket: half the
    distance to the nearer root.  At a root x = r(n): half the gap
    x - r(n + 1) down to the next root.  At 0 (and as a cap everywhere):
    eps_scale.  An 8-ulp floor F(x) = 8 spacing(x) keeps the rule
    representable right next to root floats.

    The bracket index is the closed form k = max(floor(1/(x x)/pi - 1/2), 0),
    uncorrected.  Where its bracket misses x, s below is negative and no
    root test fires, so x gets F(x).  A rule that re-brackets a miss one
    index step toward x, as the tests' reference does, gives F(x) too.
    Proof, with u = 2**-53, spacing(x) > u x, r(n) the exact root and
    R(n) = loop_root(n) its float:
      (1) R is non-increasing, and R(n) = r(n)(1 + a) with |a| <= 2.7u
          while (2n + 1) pi is finite; past that R(n) = 0, no bracket
          holds x > 0 and both rules give F(x).  For x x normal,
          t = fl(c - 1/2) with c = Q (1 + e), |e| <= 3.4u, Q = 1/(pi x x).
      (2) A miss lies within 4.9u x of a root float, on the far side of
          the closed-form bracket.  Say x > R(k): then Q(x) < Q(R(k)) =
          (k + 1/2)(1 + a)**-2, while t >= k gives c - 1/2 >= k (1 - u), so
          Q(x) >= (k + 1/2)(1 - 4.4u) and (x / R(k))**2 <= 1 + 9.8u.
          x < R(k + 1) is symmetric.
      (3) Exact roots do not miss while 10u (n + 1/2) < 1, that is
          n < N_a = 9.0e14: at x = R(n), (1) puts t within 10u (n + 1/2)
          of n, so k is n or n - 1 and x is an end of its bracket.
      (4) The float gap R(n) - R(n + 1) is at most r(n)/(2n + 1) + 5.4u r(n),
          so at most 13.4u r(n) < 16 spacing(x) for x in the bracket once
          n >= N_b = 2**49 = 5.6e14 (past 2**53, where n + 1 may round to
          n + 2, the exact gap is below u r(n)).  Every value the bracket
          then gives is at most half its gap, or at its lower-end root
          half the next gap, so below F(x).
    So the re-bracketed value is F(x): a bracket that still misses gives
    s < 0; one of index n >= N_b gives F(x) by (4); below N_b < N_a, x is
    no root float by (3), and the root float of (2) is an end of the new
    bracket, so its value is at most 2.45u x < F(x).
    """
    # near and below x = 1e-154, x*x underflows and 1/(x*x) and the root
    # index overflow to inf: r(k) is then 0 and the ulp floor decides
    with np.errstate(divide="ignore", over="ignore"):
        k = np.maximum(np.floor(1.0 / (x * x) / math.pi - 0.5), 0.0)
        rk = loop_root(k)
        rk[k == 0.0] = math.inf
        rk1 = loop_root(k + 1.0)
        s = 0.5 * np.minimum(x - rk1, rk - x)
        at = np.flatnonzero((x == rk) | (x == rk1))
        n = np.where(x[at] == rk[at], k[at], k[at] + 1.0)
        s[at] = 0.5 * (x[at] - loop_root(n + 1.0))
        s = np.maximum(s, 8.0 * np.spacing(x))
    return np.where(x > 0.0, np.minimum(eps_scale, s), eps_scale)


def _uncertified(x: np.ndarray, eps: float):
    """Indices of the points that fail `loop_gauge_family`'s phase certificate."""
    # q in place, with the roundings of 1.0 / (x * x) / math.pi - 0.5;
    # x = 0 and tiny x give q = inf and q - rint(q) = nan, which fail
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = x * x
        np.divide(1.0, q, out=q)
        q /= math.pi
        q -= 0.5
        m = np.rint(q)
        np.subtract(q, m, out=m)
        np.abs(m, out=m)
    passed = m >= _PHASE_MARGIN * eps
    passed &= q >= 1.0
    passed &= q < eps * _PHASE_CAP
    return np.flatnonzero(~passed)


def loop_gauge_family() -> GaugeFamily:
    """Accuracy-parameterized family of loop gauges for integrating f.

    at(eps) refines the structural tent `_tent_delta(x, h)`, h = sqrt(eps/2),
    whose fine partitions keep every positively tagged cell inside one
    loop (up to the ulp floor) and carry exactly one cell tagged at 0, with
    the scale c = 2*eps*x^3, floored at 1e-8 x for float practicality and,
    at subnormal x where both underflow to 0, at spacing(x) > 0, which lies
    below every positive value of the rule and so changes only those
    zeros.  The square-root cap at 0 balances the tag-0 cell's own
    contribution |F(len)| <= len^2 against eps.  No bound shows that the
    x^3 term meets eps: the first-order straddle estimate (Bartle & Sherbert, Introduction to Real
    Analysis, 7.4), the sum of |f'| len^2 / 2 with |f'| ~ 4/x^4 and
    len = 2 eps x^3, comes to about 4 eps ln(1/h), some 15 eps at
    eps = 1e-3.  Sampled sums meet the tolerance through the cancellation
    of consecutive loops, which the samples show and no bound proves.

    Evaluation.  Away from the roots the tent s of `_tent_delta` exceeds c,
    and there min(min(h, s), c) = min(h, c) exactly.  A phase certificate
    finds such points without computing s; only the rest pay for
    `_tent_delta`.  The kernel runs the certificate first, then forms c in
    the output array, reads the uncertified points' c from it, and applies
    the min with h, their exact values, the 1e-8 x floor and the value h at
    x <= 0 in place, so at most two point-length float arrays are live at
    once.  The certificate reads `_tent_delta`'s own q = fl(1/(x x)/pi - 1/2),
    whose integers are the roots and whose floor is the bracket index k,
    and passes x when
        1 <= q < eps 2**50   and   |q - rint(q)| >= 8 eps.
    For q >= 1, |q - rint(q)| is min(w, 1 - w), w = q - floor(q), and is
    exact (Sterbenz), as are 8 eps and eps 2**50.  Proof that a passing
    x > 0 has s >= c, with u = 2**-53, Q = 1/(pi x x) - 1/2 exact, r(n)
    the exact roots (Q = n there) and R(n) = loop_root(n):
      (1) 1 <= q < eps 2**50 forces eps > 2**-50, so u < eps/8, u q < eps/8,
          and x x is normal.  By `_tent_delta`'s (1),
          |q - Q| <= 3.4u (Q + 1/2) + u q, so Q < q (1 + 7u) and
          |q - Q| < 4.4u Q + 1.7u < 0.77 eps.  No integer lies between q
          and Q: k = floor(Q) >= 1, and m = min(Q - k, k + 1 - Q) > 7.23 eps.
      (2) Exactly, dx/dQ = -(pi/2) x^3, so r(k) - x >= (pi/2)(Q - k) x^3.
          With a = Q + 1/2 >= 3/2 and y = (k + 1 - Q)/a <= 2/3,
          x - r(k + 1) = pi a x^3 (1 - (1 + y)**-0.5) >= 1.06 (k + 1 - Q) x^3,
          as (1 - (1 + y)**-0.5)/y falls in y.  So the nearer root is at
          least 1.06 m x^3 away, and m >= 3.8 eps alone gives s >= 2 eps x^3;
          the rest of the margin pays for rounding.
      (3) R(n) = r(n)(1 + a), |a| <= 2.7u, by `_tent_delta`'s (1), and
          r(k + 1) < x < r(k) < 1.3 x, as (Q + 1/2)/(k + 1/2) < 5/3.  So
          fl(x - R(k + 1)) and fl(R(k) - x) are each at least (1 - u) times
          the exact gap less 3.6u x, where u x = pi (Q + 1/2) u x^3
          < 0.59 eps x^3.  Both exceed (1 - u)(1.06 * 7.23 - 2.13) eps x^3
          > 5.5 eps x^3 > 0: x is no root float and k >= 1, so neither
          patch of `_tent_delta` fires, and s > 2.75 eps x^3
          > (1 + u)**3 2 eps x^3 >= c = fl(2 eps x x x).
    The ulp floor only raises s.  x <= 0 can pass, as q depends on x x, and
    gets h from the final where; nan, +-inf, 0 and x below about 6.7e-8
    give q nan, -1/2 or above 2**46 > eps 2**50 and fail.  These bounds
    carry a margin of 7 eps but not 6 eps; 8 eps is a power of two, and
    eps 2**50 keeps the phase error under eps.
    """

    def delta(x, eps):
        h = math.sqrt(0.5 * eps)
        slow = _uncertified(x, eps)
        xs = x[slow]
        out = 2.0 * eps * x  # then * x * x, as 2.0 * eps * x * x * x
        out *= x
        out *= x
        exact = np.minimum(_tent_delta(xs, h), out[slow])
        np.minimum(out, h, out=out)
        out[slow] = np.maximum(exact, np.spacing(xs))
        np.maximum(out, _REL_FLOOR * x, out=out)
        out[~(x > 0.0)] = h
        return out

    return _family(delta)


def truncated_gauge_family(j: int) -> GaugeFamily:
    """Per-index family for integrating f_j; j must be a positive integer.

    Coarse below the jump at 1/j (where f_j vanishes), packing toward the
    jump like half the remaining distance; above it, an x^2-scaled rule
    tuned so sampled-sum noise stays below eps/4.
    """
    _positive_indices(j)
    jump = 1.0 / j

    def delta(x, eps):
        a = 0.31 * eps ** (2.0 / 3.0) / j ** (1.0 / 3.0)
        lid = min(0.25 * jump, 0.5 * math.sqrt(eps))
        out = np.where(x < jump, np.minimum((jump - x) * 0.5, lid), a * x * x)
        return np.where(x == 0.0, lid, np.maximum(out, _REL_FLOOR * x))

    return _family(delta)


def exact_integral_f() -> float:
    """Closed form of the integral of f over [0, 1]: sin 1."""
    return math.sin(1.0)


def exact_integral_fj(j: int) -> float:
    """Closed form for f_j: sin 1 - sin(j^2) / j^2; j a finite integer >= 1."""
    _positive_indices(j)
    return math.sin(1.0) - math.sin(float(j) ** 2) / float(j) ** 2


def figure_samples(which, x_min: float, x_max: float, count: int):
    """Uniform samples (x, y) of one of the four hallmark curves.

    fig1: 2x sin(1/x^2)        fig2: (2/x) cos(1/x^2)
    fig3: fig1 - fig2 (= f)    fig4: x^2 sin(1/x^2) (= F)

    x_min and x_max are read as floats by `_float`; one that is not a real
    number raises DomainError, as does a range outside (0, 1].  Raises
    DomainError naming the first sampled x whose value is not finite:
    below x ~ 7.46e-155, 1/x^2 overflows and every curve is nan.
    """
    name = f"fig{which}" if not str(which).startswith("fig") else str(which)
    if name not in _FIGURES:
        raise DomainError(f"unknown figure {which!r}")
    lo, hi = _float(x_min), _float(x_max)
    if lo is None or hi is None or not 0.0 < lo < hi <= 1.0:
        raise DomainError(f"need 0 < x_min < x_max <= 1, got [{x_min!r}, {x_max!r}]")
    if not (isinstance(count, (int, np.integer)) and count >= 2):
        raise DomainError(f"count must be an integer >= 2, got {count!r}")
    xs = np.linspace(lo, hi, count)
    with np.errstate(all="ignore"):
        ys = _eval_points(_FIGURES[name], xs, np.isfinite, DomainError, name, "not finite")
    return list(zip(xs.tolist(), ys.tolist()))


def integrand_family() -> IntegrandFamily:
    """The truncation family (f_j) on [0, 1], whose pointwise limit is f."""
    return IntegrandFamily(member_at=f_j, domain=Interval(0.0, 1.0))


def index_selector() -> IndexSelector:
    """Threshold ceil(1/x) (1 at x = 0): beyond it f_j(x) = f(x) exactly."""

    def threshold(x):
        arr = np.asarray(x, dtype=float)
        q = np.where(arr > 0.0, arr, 1.0)
        np.divide(1.0, q, out=q)
        out = np.ceil(q, out=q).astype(np.int64)
        return out.item() if out.ndim == 0 else out

    return IndexSelector(threshold)
