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
    _float,
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
    Every field is a builtin float, int or bool.
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


def _check_accuracy(name: str, value: float) -> float:
    """The accuracy argument `name` as a float, read by `_float`;
    InvalidTolerance unless it is a finite, positive real number."""
    v = _float(value)
    if v is None or not (math.isfinite(v) and v > 0.0):
        raise InvalidTolerance(f"{name} must be finite and positive, got {value}")
    return v


def _check_run(name: str, accuracy: float, trials: int, least: int) -> tuple[float, int]:
    """(float(accuracy), int(trials)): the one argument check of a sampling
    call.  InvalidTolerance unless the accuracy argument `name` is finite and
    positive, then ValueError unless trials is an integer >= least."""
    accuracy = _check_accuracy(name, accuracy)
    if not (isinstance(trials, numbers.Integral) and trials >= least):
        raise ValueError(f"trials must be an integer >= {least}, got {trials!r}")
    return accuracy, int(trials)


def _family(delta: Callable[[np.ndarray, float], np.ndarray]) -> GaugeFamily:
    """The family whose gauge at eps is the array kernel delta(x, eps).

    This is the one eps check of every family: eps must be finite and
    positive.  The kernel gets the float array that `Gauge.eval_many`
    converts its points to, which on every path of the package is 1-d.
    """

    def at(eps: float) -> Gauge:
        eps = _check_accuracy("eps", eps)
        return Gauge(lambda x: delta(x, eps))

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

#: `_sample` sums a partition of at most this many cells on the calling
#: thread.  On 2 vCPUs a hand-off to its worker costs about 22 us, plus a
#: thread start of about 85 us per call, so about 40 us a partition in a
#: five-partition level.  A sum of 2**11 cells takes about 28 us for x**3
#: and 70-86 us for the oscillator's f and f_j, so the break-even lies
#: near this size.
_INLINE_SUM = 1 << 11


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
        block = [a[i:j] for a in lead]
        v = _eval_points(f, tags[i:j], np.isfinite, NonFiniteValue, what, "non-finite", lead=block)
        w = points[i + 1 : j + 1] - points[i:j]
        with np.errstate(over="ignore", invalid="ignore"):
            w *= v
            total += float(w.sum())
    if not math.isfinite(total):
        raise NonFiniteValue(f"sum leaves the float range: {total}")
    return total


def riemann_sum(f: RealFunction, p: TaggedPartition) -> float:
    """(P) sum of f(tag) * |cell| over the partition.

    Follows the block rule of _block_sum: f is called on one block of a
    fixed number of tags at a time, or once per tag if it is scalar-only,
    and the block totals are added in cell order, so the result does not
    depend on BLAS or its thread count.  Called by gauge_integrate or a
    criterion checker, it may run on the sum worker while the caller's
    thread evaluates the gauge (see Threads in the package docstring), so
    f and the gauge must not share unsynchronised mutable state.
    """
    return _block_sum(f, p, "integrand")


def sum_defect(F: RealFunction, f: RealFunction, p: TaggedPartition) -> float:
    """|(F(b) - F(a)) - riemann_sum(f, p)| for a claimed primitive F of f.

    This is the quantity the telescoping derivation bounds by eps for
    partitions fine with respect to an eps-accuracy gauge.  F is evaluated
    once, on both ends, by the rule of every user callable, so a value that
    is not finite raises NonFiniteValue naming its end.  An increment
    F(b) - F(a) past the float range raises NonFiniteValue too.
    """
    ends = p.points[[0, -1]]
    Fa, Fb = _eval_points(F, ends, np.isfinite, NonFiniteValue, "primitive", "non-finite").tolist()
    increment = Fb - Fa
    if not math.isfinite(increment):
        raise NonFiniteValue(f"primitive increment leaves the float range: {increment}")
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

    A total in flight is awaited before the next partition is handed over.
    A partition of at most `_INLINE_SUM` cells is then summed on this
    thread, in the caller's own context.  A larger one goes to a one-worker
    executor, whose thread starts at the first such partition, and
    total(i, p_k) runs there while this thread builds p_{k+1}.  So at most
    one total is in flight, always on the same worker thread, and no thread
    outlives the call.  Only hand_over's frame holds p_k on this thread, and it
    returns once the total is done or submitted, so this thread drops p_k
    before it starts p_{k+1}: a partition is freed as soon as it is summed.
    Each total on the worker runs in a copy of the caller's context, so the
    caller's np.errstate reaches the integrand on either thread.  Errors
    surface in sequence order: if total k fails and building p_{k+1} fails
    too, total k's error is raised, as if p_{k+1} had never been built.
    """
    results: list = []
    pending: list = []  # the future of the total in flight, if any
    with ThreadPoolExecutor(1, thread_name_prefix="gaugequad-sum") as pool:

        def hand_over(p: TaggedPartition) -> None:
            if pending:
                results.append(pending.pop().result())
            if len(p) <= _INLINE_SUM:
                results.append(total(len(results), p))
            else:
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

    f may run on the sum worker, and the gauge on the caller's thread and
    the build helper (see Threads in the package docstring), so the two
    must not share unsynchronised mutable state.  Sums follow riemann_sum's
    block rule.

    Returns converged=False (with the last completed estimate) when the
    gauge family outruns float representability before the sums settle.
    Raises DepthExceeded if that happens on the very first level,
    InvalidTolerance for a tol that is not finite and positive, and
    ValueError before any build for a trials that is not an integer >= 2.
    """
    tol, trials = _check_run("tol", tol, trials, 2)

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
