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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import IndexBelowQ, LengthMismatch, NonFiniteValue
from .integrator import _block_sum, _overlapped, _partitions, riemann_sum
from .partition import Gauge, Interval, TaggedPartition, _eval_points

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
    partial(member_at, j) is then the integrand f_j.
    """

    member_at: Callable
    domain: Interval


@dataclass(frozen=True)
class IndexSelector:
    """Per-point index threshold: beyond threshold(x) a property kicks in."""

    threshold: Callable


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a sampling run against one criterion's inequality."""

    alpha: float
    epsilon: float
    trials: int
    violations: int
    worst_deviation: float
    passed: bool


def _report(alpha: float, eps: float, band: float, devs: list[float]) -> CriterionReport:
    """Report on sampled deviations |alpha - sum|; one at or above band fails."""
    violations = sum(dev >= band for dev in devs)
    return CriterionReport(
        alpha=alpha,
        epsilon=eps,
        trials=len(devs),
        violations=violations,
        worst_deviation=max([0.0, *devs]),
        passed=violations == 0,
    )


def _positive_indices(indices) -> np.ndarray:
    """indices as an array, each a finite integer >= 1 (integral floats pass)."""
    arr = np.asarray(indices)
    if arr.dtype == object:  # Python ints beyond the int64 and uint64 range
        try:
            arr = arr.astype(float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("indices must be positive integers") from None
    integral = arr.dtype.kind in "iu" or np.all(np.isfinite(arr) & (np.floor(arr) == arr))
    if not (integral and np.all(arr >= 1)):
        raise ValueError("indices must be positive integers")
    return arr


def _indices_array(indices, n: int) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.ndim != 1 or arr.size != n:
        raise LengthMismatch(f"expected {n} indices, got shape {arr.shape}")
    return _positive_indices(arr)


def variable_index_sum(
    fam: IntegrandFamily,
    indices: Sequence[int],
    p: TaggedPartition,
) -> float:
    """sum of f_{indices[i]}(tag_i) * |I_i| in cell order.

    Follows riemann_sum's block rule: one call member_at(indices[i:j],
    tags[i:j]) evaluates each block of at most 2**16 cells, and the block
    totals are added in cell order.  With all indices equal to j this
    reduces bitwise to riemann_sum(partial(fam.member_at, j), p).  Called
    by check_criterion1, it runs on a worker thread while the caller's
    thread evaluates the next partition's gauge, so the family and the
    gauge must not share unsynchronised mutable state.
    """
    idx = _indices_array(indices, len(p))
    tags = p.tags

    def values(i: int, j: int) -> np.ndarray:
        out = np.asarray(fam.member_at(idx[i:j], tags[i:j]), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue("family member non-finite at a tag")
        return out

    return _block_sum(values, p)


def _thresholds(sel: IndexSelector, tags: np.ndarray) -> np.ndarray:
    out = _eval_points(sel.threshold, tags, dtype=None).astype(np.int64, copy=False)
    if not np.all(out >= 1):
        raise ValueError("selector thresholds must be positive")
    return out


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

    Each partition's index draw and variable-index sum run on a worker
    thread while the caller's thread builds the next partition, so the
    family and selector run on the worker and the gauge on the caller's
    thread: they must not share unsynchronised mutable state.  Sums follow
    riemann_sum's block rule.  A seed that is not a non-negative integer
    raises ValueError before any build.
    """
    if not (math.isfinite(eps) and eps > 0.0) or trials < 1:
        raise ValueError("finite eps > 0 and trials >= 1 required")

    def deviation(i: int, p: TaggedPartition) -> float:
        rng = np.random.default_rng([seed, 2, i])
        idx = _thresholds(sel, p.tags) + rng.integers(1, _INDEX_HEADROOM + 1, size=len(p))
        return abs(alpha1 - variable_index_sum(fam, idx, p))

    parts = _partitions(fam.domain, gf.at(eps), [seed, 1], trials, False)
    return _report(alpha1, eps, eps, _overlapped(deviation, parts))


def check_criterion2(
    fam: IntegrandFamily,
    gauge_for: Callable[[int], Gauge],
    alpha2: float,
    eps: float,
    q: int,
    j_list: Sequence[int],
    trials: int,
    seed: int,
) -> CriterionReport:
    """Sample the fixed-index inequality |alpha2 - sum| < 2*eps.

    q must be finite, and each j in j_list a positive integer (ValueError
    otherwise) that exceeds q (IndexBelowQ otherwise).  Each j gets its own
    gauge via gauge_for(j), following the per-index gauge construction, and
    its cousin partition plus `trials` seeded ones.  Each partition is
    summed on a worker thread while the caller's thread builds the next
    one, across j values too, so f_j runs on the worker and gauge_for and
    its gauges on the caller's thread: they must not share unsynchronised
    mutable state.  Sums follow riemann_sum's block rule.  A seed that is
    not a non-negative integer raises ValueError before any build.  The
    acceptance band is 2*eps, the bound the triangle inequality yields.
    """
    # chained comparisons, not math.isfinite, so that a Python int q
    # beyond the float range still counts as finite
    bad_q = not -math.inf < q < math.inf
    if not (math.isfinite(eps) and eps > 0.0) or bad_q or trials < 1 or len(j_list) == 0:
        raise ValueError("finite eps > 0 and q, trials >= 1 and a non-empty j_list required")
    _indices_array(j_list, len(j_list))
    for j in j_list:
        if j <= q:
            raise IndexBelowQ(f"index {j} not above q = {q}")

    def stream():  # every j's partitions as one stream, so the overlap never drains
        for jn, j in enumerate(j_list):
            fj = partial(fam.member_at, int(j))
            for p in _partitions(fam.domain, gauge_for(int(j)), [seed, 3, jn], trials, True):
                yield fj, p
                del p  # not held while the next partition builds

    devs = _overlapped(lambda _, fj_p: abs(alpha2 - riemann_sum(*fj_p)), stream())
    return _report(alpha2, eps, 2.0 * eps, devs)


def check_criterion3(alpha1: float, alpha2: float, tol: float) -> bool:
    """True iff the two limits agree within tol: then limit and integral
    interchange, i.e. the integral of the limit equals the limit of the
    integrals."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return abs(alpha1 - alpha2) <= tol
