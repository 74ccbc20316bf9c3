"""Empirical checkers for the three Riemann-sum convergence criteria.

Criterion 1 probes variable-index sums  sum f_{j(x_i)}(x_i) |I_i|  with
per-tag index thresholds; criterion 2 probes fixed-index sums against a
2*eps band; criterion 3 compares the two limits.  The underlying theorems
quantify over all fine partitions and all admissible index choices; these
checkers sample both and report violations, so they are falsifiers and
evidence gatherers, not provers.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidIndex, InvalidTolerance, LengthMismatch
from .integrator import _block_sum, _check_run, _sample, riemann_sum
from .partition import Gauge, Interval, TaggedPartition, _eval_points, _float

__all__ = [
    "IntegrandFamily",
    "IndexSelector",
    "CriterionReport",
    "variable_index_sum",
    "check_criterion1",
    "check_criterion2",
    "check_criterion3",
]

#: Criterion 1 draws each index from the _INDEX_HEADROOM integers above its
#: tag's threshold.
_INDEX_HEADROOM = 10


@dataclass(frozen=True)
class IntegrandFamily:
    """An indexed sequence of integrands f_j on a domain, as one array kernel.

    member_at(j, x) is f_j(x), with j a positive integer or an integer
    array aligned with x; for an array x it returns values of x's shape.
    partial(member_at, j) is then the integrand f_j.  Like the other user
    callables, member_at may be scalar-only: one that rejects arrays with
    TypeError or ValueError is called once per point, as member_at(j, x).
    """

    member_at: Callable
    domain: Interval


@dataclass(frozen=True)
class IndexSelector:
    """Per-point index threshold: beyond threshold(x) a property kicks in."""

    threshold: Callable


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a sampling run against one criterion's inequality.

    Every field is a builtin float, int or bool.
    """

    alpha: float
    epsilon: float
    trials: int
    violations: int
    worst_deviation: float
    passed: bool


def _report(alpha: float, eps: float, band: float, devs: list[float]) -> CriterionReport:
    """Report on sampled deviations |alpha - sum|; one not below band, nan
    included, fails, and a nan deviation makes the worst one nan."""
    violations = sum(not dev < band for dev in devs)
    return CriterionReport(
        alpha=alpha,
        epsilon=eps,
        trials=len(devs),
        violations=violations,
        worst_deviation=float(np.max([0.0, *devs])),
        passed=violations == 0,
    )


def _real(name: str, value: float) -> float:
    """value as a float, read by `_float`, so a string is rejected, not
    parsed, and an int past the float range is an infinity; ValueError
    naming `name` unless it is a real number."""
    v = _float(value)
    if v is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return v


def _positive_indices(indices, n: int | None = None) -> np.ndarray:
    """indices as an array, each a finite integer >= 1: the one index rule.

    Integral floats and Python ints beyond the int64 range pass; any other
    value, such as a string or a complex number, raises InvalidIndex, as
    does a ragged sequence.  Given n, indices must also be a 1-d array of
    exactly n entries, and LengthMismatch is raised otherwise.
    """
    try:
        arr = np.asarray(indices)
    except ValueError:  # a ragged sequence
        raise InvalidIndex("indices must be positive integers, got a ragged sequence") from None
    if n is not None and arr.shape != (n,):
        raise LengthMismatch(f"expected {n} indices, got shape {arr.shape}")
    try:  # an object array holds Python ints beyond the int64 and uint64 range; it is
        # cast only if every entry is a real number, as astype(float) parses strings
        if arr.dtype == object and all(isinstance(v, numbers.Real) for v in arr.flat):
            arr = arr.astype(float)
        integral = arr.dtype.kind in "iu" or np.all(np.isfinite(arr) & (np.floor(arr) == arr))
    except (TypeError, ValueError, OverflowError):  # also strings and complex values
        integral = False
    if not (integral and np.all(arr >= 1)):
        raise InvalidIndex("indices must be positive integers")
    return arr


def variable_index_sum(
    fam: IntegrandFamily,
    indices: Sequence[int],
    p: TaggedPartition,
) -> float:
    """sum of f_{indices[i]}(tag_i) * |I_i| in cell order.

    Follows riemann_sum's block rule: one call member_at(indices[i:j],
    tags[i:j]) evaluates each block of cells, or a scalar-only member_at
    is called once per cell, and the block totals are added in cell order.
    With all indices equal to j this reduces bitwise to
    riemann_sum(partial(fam.member_at, j), p).  Called by
    check_criterion1, it may run on the sum worker while the caller's
    thread evaluates the next partition's gauge (see Threads in the
    package docstring), so the family and the gauge must not share
    unsynchronised mutable state.
    """
    idx = _positive_indices(indices, len(p))
    return _block_sum(fam.member_at, p, "family member", idx)


def _thresholds(sel: IndexSelector, tags: np.ndarray) -> np.ndarray:
    """sel.threshold at the tags as int64, each in [1, 2**63).

    The values are checked in the selector's own dtype, so nan, inf and
    values past int64 raise InvalidIndex at their first point, and then
    cast once: an int64 result is returned without a copy.  The bound is
    the float 2.0**63, which numpy compares with bool results too.
    """
    ok = lambda q: (q >= 1) & (q < 2.0**63)  # noqa: E731
    q = _eval_points(
        sel.threshold, tags, ok, InvalidIndex, "selector threshold", "out of range", None
    )
    return q.astype(np.int64, copy=False)


def check_criterion1(
    fam: IntegrandFamily,
    gf,
    sel: IndexSelector,
    alpha1: float,
    eps: float,
    trials: int,
    seed: int,
) -> CriterionReport:
    """Sample the variable-index inequality |alpha1 - sum| < eps.

    Draws `trials` random fine partitions for gf.at(eps), and for each one
    admissible index vector with indices uniform in
    (threshold(tag), threshold(tag) + _INDEX_HEADROOM].  A clean report is
    evidence for the criterion whose conclusion is that the limit function
    integrates to alpha1.

    The family and the selector may run on the sum worker, and the gauge
    on the caller's thread and the build helper (see Threads in the package
    docstring), so they must not share unsynchronised mutable state.  Sums
    follow riemann_sum's block rule.  Before any build, an eps that is not
    finite and positive raises InvalidTolerance, and a trials that is not
    an integer >= 1, an alpha1 that is not a real number or a seed that is
    not a non-negative integer raises ValueError.
    """
    eps, trials = _check_run("eps", eps, trials, 1)
    alpha1 = _real("alpha1", alpha1)

    def deviation(i: int, p: TaggedPartition) -> float:
        rng = np.random.default_rng([seed, 2, i])
        idx = rng.integers(1, _INDEX_HEADROOM + 1, size=len(p))
        # into the draws: _thresholds may return the selector's own array
        np.add(idx, _thresholds(sel, p.tags), out=idx)
        return abs(alpha1 - variable_index_sum(fam, idx, p))

    devs = _sample(fam.domain, [(gf.at(eps), [seed, 1])], trials, False, deviation)
    return _report(alpha1, eps, eps, devs)


def check_criterion2(
    fam: IntegrandFamily,
    gauge_for: Callable[[int], Gauge],
    alpha2: float,
    eps: float,
    j_list: Sequence[int],
    trials: int,
    seed: int,
) -> CriterionReport:
    """Sample the fixed-index inequality |alpha2 - sum| < 2*eps.

    j_list must be a non-empty 1-d sequence of positive integers
    (InvalidIndex otherwise, before any build); choosing
    them large enough for the criterion's "for every large enough j" is
    the caller's part.  Each j gets its own gauge via gauge_for(j),
    following the per-index gauge construction, and its cousin partition
    plus `trials` seeded ones.  f_j may run on the sum worker, across j
    values too; gauge_for runs on the caller's thread, and its gauges there
    and on the build helper (see Threads in the package docstring), so they
    must not share unsynchronised mutable state.  Sums follow riemann_sum's
    block rule.  Before any build, an eps that is not finite and positive
    raises InvalidTolerance, and a trials that is not an integer >= 1, an
    alpha2 that is not a real number or a seed that is not a non-negative
    integer raises ValueError.  The acceptance band is 2*eps, the bound the
    triangle inequality yields.
    """
    eps, trials = _check_run("eps", eps, trials, 1)
    alpha2 = _real("alpha2", alpha2)
    shape = _positive_indices(j_list).shape
    if len(shape) != 1 or shape == (0,):
        raise InvalidIndex(f"need a non-empty j_list of shape (n,), got shape {shape}")
    js = [int(j) for j in j_list]

    def deviation(i: int, p: TaggedPartition) -> float:
        return abs(alpha2 - riemann_sum(partial(fam.member_at, js[i // (trials + 1)]), p))

    # a generator, so gauge_for(j) runs only once the previous j's builds are done
    runs = ((gauge_for(j), [seed, 3, jn]) for jn, j in enumerate(js))
    return _report(alpha2, eps, 2.0 * eps, _sample(fam.domain, runs, trials, True, deviation))


def check_criterion3(alpha1: float, alpha2: float, tol: float) -> bool:
    """True iff the two limits agree within tol: then limit and integral
    interchange, i.e. the integral of the limit equals the limit of the
    integrals."""
    t = _float(tol)
    if t is None or not (math.isfinite(t) and t >= 0.0):
        raise InvalidTolerance(f"tol must be finite and >= 0, got {tol}")
    return abs(_real("alpha1", alpha1) - _real("alpha2", alpha2)) <= t
