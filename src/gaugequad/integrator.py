"""Riemann sums over tagged partitions, and the gauge integral.

`gauge_integrate` estimates an integral by driving an accuracy demand eps
downward through a gauge family, sampling several fine partitions at each
level, and accepting once the sampled Riemann sums agree to within the
requested tolerance.  Agreement of sampled sums is evidence, not proof: the
definition quantifies over all fine partitions, which is uncheckable.
"""
from __future__ import annotations

import contextvars
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DepthExceeded, InvalidTolerance, NonFiniteValue
from .partition import (
    Gauge,
    Interval,
    TaggedPartition,
    _check_seed,
    _eval_points,
    cousin_partition,
)
# An alias, not a direct call, because bench/tracer.py rebinds this name.
from .partition import random_delta_fine_partition as _random_partition

__all__ = [
    "RealFunction",
    "IntegralEstimate",
    "GaugeFamily",
    "smooth_gauge_family",
    "riemann_sum",
    "sum_defect",
    "gauge_integrate",
]

#: A pointwise integrand: a callable returning finite floats on its domain.
#: Array-capable callables are exploited for speed but not required: one
#: that rejects an array with TypeError or ValueError is called once per
#: point, as are a gauge's delta, a selector's threshold and a family's
#: member_at.  On an array the result must broadcast to the array's shape.
RealFunction = Callable

#: Refinement stops once a single partition would exceed this many cells.
_MAX_CELLS = 30_000_000

#: Cap on eps-halving levels inside gauge_integrate.
_MAX_LEVELS = 48


@dataclass(frozen=True)
class IntegralEstimate:
    """Result of a gauge-integration run.

    value is the midpoint of the sampled-sum range at the final accuracy
    level; spread is that range's width (max - min).  converged means the
    spread met the requested tolerance: the sampled sums agree.  The sampler
    tags only at cell ends or at its own split point, so converged is not a
    bound over every delta-fine partition; re-tagging sampled loop-family
    partitions of f at tol 1e-3 moves their sums 5-7 times tol from sin 1.
    """

    value: float
    spread: float
    cells_used: int
    trials: int
    converged: bool


@dataclass(frozen=True)
class GaugeFamily:
    """Maps an accuracy demand eps > 0 to a gauge instance.

    Families must be monotone: a smaller eps yields a pointwise
    smaller-or-equal gauge (finer demand, finer gauge).
    """

    at: Callable[[float], Gauge]


def _check_accuracy(name: str, value: float) -> None:
    """InvalidTolerance unless the accuracy argument `name` is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidTolerance(f"{name} must be finite and positive, got {value}")


def _family(delta: Callable[[np.ndarray, float], np.ndarray]) -> GaugeFamily:
    """The family whose gauge at eps is the array kernel delta(x, eps).

    This is the one eps check of every family: eps must be finite and
    positive.  The kernel gets x as a 1-d float array; the gauge returns
    x's shape, so a scalar x gives a 0-d array.
    """

    def at(eps: float) -> Gauge:
        _check_accuracy("eps", eps)

        def gauge(x):
            x = np.asarray(x, dtype=float)
            return delta(x.ravel(), eps).reshape(x.shape)

        return Gauge(gauge)

    return GaugeFamily(at)


def smooth_gauge_family() -> GaugeFamily:
    """Constant-gauge family delta_eps = eps**(2/3).

    Suited to integrands with moderate derivatives: the constructors
    produce midpoint-dominated partitions, so sampled sums agree to
    O(delta**1.5) = O(eps) and the family converges at or near its first
    level.  That agreement is among the sampled sums only.  A delta-fine
    partition may tag anywhere that keeps its cell within delta of the
    tag, and such re-tagged sums spread far wider: for x**3 at eps 1e-9,
    over +-3.2e-7 on one sampled partition.
    """
    return _family(lambda x, eps: np.full_like(x, eps ** (2.0 / 3.0)))


#: Cells per block of a Riemann sum.  Fixed, so a sum's rounding depends on
#: neither the machine's BLAS nor its thread count.
_BLOCK = 1 << 16


def _block_sum(f: Callable, p: TaggedPartition, what: str, *lead: np.ndarray) -> float:
    """The one summation rule: sum of f(*lead, tag) * |cell| in cell order.

    For each block of _BLOCK cells [i, j) in cell order, f is evaluated by
    `_eval_points` on tags[i:j], after the block [i:j] of each array in
    lead, the block's lengths are multiplied by those values, and np.sum
    of the products is added to a Python float.  So f sees one block at a
    time, its values never span the partition, and a scalar-only f is
    called once per cell.  A non-finite value raises NonFiniteValue naming
    `what` and its tag; finite terms whose products or sum leave the float
    range raise NonFiniteValue too.
    """
    tags, points, n = p.tags, p.points, len(p)
    total = 0.0
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        # outside the errstate below: the caller's applies
        v = _eval_points(f, tags[i:j], np.isfinite, NonFiniteValue, what, lead=[a[i:j] for a in lead])
        w = points[i + 1 : j + 1] - points[i:j]
        with np.errstate(over="ignore", invalid="ignore"):
            w *= v
            total += float(w.sum())
    if not math.isfinite(total):
        raise NonFiniteValue(f"sum leaves the float range: {total}")
    return total


def riemann_sum(f: RealFunction, p: TaggedPartition) -> float:
    """(P) sum of f(tag) * |cell| over the partition.

    Follows the block rule of _block_sum: f is called on one block of at
    most 2**16 tags at a time, or once per tag if it is scalar-only, and
    the block totals are added in cell order, so the result does not
    depend on BLAS or its thread count.  Called by gauge_integrate or a
    criterion checker, it runs on a worker thread while the caller's
    thread evaluates the gauge for the next partition, so f and the gauge
    must not share unsynchronised mutable state.
    """
    return _block_sum(f, p, "integrand non-finite")


def sum_defect(F: RealFunction, f: RealFunction, p: TaggedPartition) -> float:
    """|(F(b) - F(a)) - riemann_sum(f, p)| for a claimed primitive F of f.

    This is the quantity the telescoping derivation bounds by eps for
    partitions fine with respect to an eps-accuracy gauge.
    """
    a, b = p.domain.a, p.domain.b
    increment = float(F(b)) - float(F(a))
    if not math.isfinite(increment):
        raise NonFiniteValue("primitive non-finite at a domain endpoint")
    return abs(increment - riemann_sum(f, p))


def _sample(domain: Interval, runs: Iterable, trials: int, cousin: bool, total: Callable) -> list:
    """[total(i, p) for every sampled partition p, i counting from 0].

    runs is read lazily, one (gauge, seed_prefix) pair at a time.  Each run
    contributes its gauge's cousin partition first when `cousin` is true,
    then `trials` seeded partitions, trial t drawn from the seed
    [*seed_prefix, t]; i counts on across runs.  A seed entry that is not a
    non-negative integer raises ValueError before that run's first build.
    Both builders are looked up as this module's globals at every build, so
    a rebinding of either name reaches every build.

    total(i, p_k) runs on a one-worker executor while this thread builds
    p_{k+1}, and is awaited before total(i + 1, p_{k+1}) is submitted, so
    at most one total is in flight, on the same worker thread, and no thread
    outlives the call.  Only hand_over's frame holds p_k on this thread,
    and it returns once the total is submitted, so this thread drops p_k
    before it starts p_{k+1}: a partition is freed as soon as it is
    summed.  Each total runs in a copy of the caller's context, so the
    caller's np.errstate reaches the integrand.  Errors surface in
    sequence order: if total k fails and building p_{k+1} fails too, total
    k's error is raised, as if p_{k+1} had never been built.
    """
    results: list = []
    pending: list = []  # the future of the total in flight, if any
    with ThreadPoolExecutor(1, thread_name_prefix="gaugequad-sum") as pool:

        def hand_over(p: TaggedPartition) -> None:
            if pending:
                results.append(pending.pop().result())
            pending.append(pool.submit(contextvars.copy_context().run, total, len(results), p))

        try:
            for gauge, prefix in runs:
                _check_seed(prefix)
                if cousin:
                    hand_over(cousin_partition(domain, gauge))
                for t in range(trials):
                    hand_over(_random_partition(domain, gauge, [*prefix, t]))
        finally:
            # the last total, after the last build or a failed one; its own
            # error replaces a build error
            if pending:
                results.append(pending.pop().result())
    return results


def gauge_integrate(
    f: RealFunction,
    gf: GaugeFamily,
    domain: Interval,
    tol: float,
    trials: int = 4,
    seed: int = 0,
) -> IntegralEstimate:
    """Estimate the gauge integral of f over the domain.

    Iterates eps downward (tol, tol/2, tol/4, ...).  At each level it
    builds the deterministic cousin partition plus `trials` seeded random
    partitions for gf.at(eps) and computes their Riemann sums.  Once
    max - min of the sums is <= tol the run converges with value at the
    midpoint of [min, max].  Converged means only that these sampled sums
    agree: their tags sit at cell ends or at the sampler's split points, so
    it is not a bound on the sum over every gf.at(eps)-fine partition.

    Deterministic given (seed, tol, trials): per-trial generators are
    derived from (seed, level, trial index), so trials are order
    independent.  A seed that is not a non-negative integer raises
    ValueError before any build.

    Each sum runs on a worker thread while the caller's thread builds the
    next partition, so f runs on the worker and the gauge on the caller's
    thread: the two must not share unsynchronised mutable state.  The
    caller's np.errstate applies to both.  Sums follow riemann_sum's block
    rule.

    Returns converged=False (with the last completed estimate) when the
    gauge family outruns float representability before the sums settle.
    Raises DepthExceeded if that happens on the very first level,
    InvalidTolerance for a tol that is not finite and positive, and
    ValueError before any build for a trials that is not an integer >= 2.
    """
    _check_accuracy("tol", tol)
    if not (isinstance(trials, numbers.Integral) and trials >= 2):
        raise ValueError(f"trials must be an integer >= 2, got {trials!r}")

    last: IntegralEstimate | None = None
    eps = tol
    for level in range(_MAX_LEVELS):
        try:
            runs = [(gf.at(eps), [seed, level])]
            sized = _sample(domain, runs, trials, True, lambda i, p: (len(p), riemann_sum(f, p)))
        except DepthExceeded:
            if last is None:
                raise
            break
        cells = sized[0][0]  # the cousin partition's
        sums = [s for _, s in sized]
        lo, hi = min(sums), max(sums)
        spread = hi - lo
        last = IntegralEstimate(
            value=0.5 * (lo + hi),
            spread=spread,
            cells_used=cells,
            trials=trials,
            converged=spread <= tol,
        )
        if last.converged or cells > _MAX_CELLS:
            break
        eps *= 0.5
    return last
