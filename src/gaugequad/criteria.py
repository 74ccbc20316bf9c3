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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IndexBelowQ, LengthMismatch, NonFiniteValue
from .integrator import RealFunction, _dot, riemann_sum
from .partition import (
    DEFAULT_MAX_DEPTH,
    Gauge,
    Interval,
    TaggedPartition,
    _eval_points,
    cousin_partition,
)
# An alias, not a direct call, because bench/tracer.py rebinds this name.
from .partition import random_delta_fine_partition as _random_partition

__all__ = [
    "IntegrandFamily",
    "IndexSelector",
    "CriterionReport",
    "variable_index_sum",
    "check_criterion1",
    "check_criterion2",
    "check_criterion3",
]


@dataclass(frozen=True)
class IntegrandFamily:
    """An indexed sequence of integrands f_j with pointwise limit.

    member(j) returns the j-th integrand.  member_at, when provided, is a
    vectorized shortcut (index_array, x_array) -> values used to keep
    variable-index sums cheap; it must agree with member pointwise.
    """

    member: Callable[[int], RealFunction]
    limit: RealFunction
    domain: Interval
    member_at: Optional[Callable] = None


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


def _indices_array(indices, n: int) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.ndim != 1 or arr.size != n:
        raise LengthMismatch(f"expected {n} indices, got shape {arr.shape}")
    integral = arr.dtype.kind in "iu" or np.all(np.isfinite(arr) & (np.floor(arr) == arr))
    if not (integral and np.all(arr >= 1)):
        raise ValueError("indices must be positive integers")
    return arr


def variable_index_sum(
    fam: IntegrandFamily,
    indices: Sequence[int],
    p: TaggedPartition,
    compensated: bool = False,
) -> float:
    """sum of f_{indices[i]}(tag_i) * |I_i| in cell order.

    With all indices equal to j this reduces bitwise to
    riemann_sum(member(j), p).
    """
    idx = _indices_array(indices, len(p))
    if fam.member_at is not None:
        values = np.asarray(fam.member_at(idx, p.tags), dtype=float)
    else:
        values = np.empty(len(p))
        for j in np.unique(idx):
            sel = idx == j
            values[sel] = _eval_points(fam.member(int(j)), p.tags[sel])
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("family member non-finite at a tag")
    return _dot(values, p.lengths, compensated)


def _thresholds(sel: IndexSelector, tags: np.ndarray) -> np.ndarray:
    out = _eval_points(sel.threshold, tags, dtype=None).astype(np.int64)
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
    index_headroom: int,
    seed: int,
    index_draws: int = 1,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CriterionReport:
    """Sample the variable-index inequality |alpha1 - sum| < eps.

    Draws `trials` random fine partitions for gf.at(eps); for each,
    `index_draws` admissible index vectors with indices uniform in
    (threshold(tag), threshold(tag) + index_headroom].  A clean report is
    evidence for the criterion whose conclusion is that the limit function
    integrates to alpha1.
    """
    bad_eps = not (math.isfinite(eps) and eps > 0.0)
    if bad_eps or trials < 1 or index_headroom < 1 or index_draws < 1:
        raise ValueError("finite eps > 0, trials >= 1, index_headroom >= 1 required")
    gauge = gf.at(eps)
    devs = []
    for i in range(trials):
        p = _random_partition(fam.domain, gauge, [seed, 1, i], max_depth)
        thr = _thresholds(sel, p.tags)
        rng = np.random.default_rng([seed, 2, i])
        for _ in range(index_draws):
            idx = thr + rng.integers(1, index_headroom + 1, size=len(p))
            devs.append(abs(alpha1 - variable_index_sum(fam, idx, p)))
    return _report(alpha1, eps, eps, devs)


def check_criterion2(
    fam: IntegrandFamily,
    gauge_for: Callable[[int], Gauge],
    alpha2: float,
    eps: float,
    q: int,
    j_list: Sequence[int],
    trials: int,
    seed: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CriterionReport:
    """Sample the fixed-index inequality |alpha2 - sum| < 2*eps.

    Each j in j_list must exceed q (IndexBelowQ otherwise) and gets its own
    gauge via gauge_for(j), following the per-index gauge construction; the
    acceptance band is 2*eps, the bound the triangle inequality yields.
    """
    if not (math.isfinite(eps) and eps > 0.0) or trials < 1:
        raise ValueError("finite eps > 0 and trials >= 1 required")
    for j in j_list:
        if j <= q:
            raise IndexBelowQ(f"index {j} not above q = {q}")
    devs = []
    for jn, j in enumerate(j_list):
        gauge = gauge_for(int(j))
        fj = fam.member(int(j))
        parts = [cousin_partition(fam.domain, gauge, max_depth)]
        parts += [
            _random_partition(fam.domain, gauge, [seed, 3, jn, t], max_depth)
            for t in range(trials)
        ]
        devs += [abs(alpha2 - riemann_sum(fj, p)) for p in parts]
    return _report(alpha2, eps, 2.0 * eps, devs)


def check_criterion3(alpha1: float, alpha2: float, tol: float) -> bool:
    """True iff the two limits agree within tol: then limit and integral
    interchange, i.e. the integral of the limit equals the limit of the
    integrals."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return abs(alpha1 - alpha2) <= tol
