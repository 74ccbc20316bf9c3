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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    DepthExceeded,
    InvalidTolerance,
    NonFiniteValue,
    WitnessNotFound,
)
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
    "riemann_unboundedness_witness",
]

#: A pointwise integrand: a callable returning finite floats on its domain.
#: Array-capable callables are exploited for speed but not required.
RealFunction = Callable

#: Refinement stops once a single partition would exceed this many cells.
_MAX_CELLS = 30_000_000

#: Cap on eps-halving levels inside gauge_integrate.
_MAX_LEVELS = 48

_WITNESS_PROBES = 1_000_000


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


def _family(delta: Callable[[np.ndarray, float], np.ndarray]) -> GaugeFamily:
    """The family whose gauge at eps is the array kernel delta(x, eps).

    This is the one eps check of every family: eps must be finite and
    positive.  The kernel gets x as a 1-d float array; the gauge returns
    x's shape, so a scalar x gives a 0-d array.
    """

    def at(eps: float) -> Gauge:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {eps}")

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


def _eval_values(f: RealFunction, xs: np.ndarray) -> np.ndarray:
    """Evaluate an integrand on an array, rejecting non-finite values."""
    out = _eval_points(f, xs)
    if not np.all(np.isfinite(out)):
        bad = xs[~np.isfinite(out)]
        raise NonFiniteValue(f"integrand non-finite at x={bad[0]}")
    return out


#: Cells per block of a Riemann sum.  Fixed, so a sum's rounding depends on
#: neither the machine's BLAS nor its thread count.
_BLOCK = 1 << 16


def _block_sum(values: Callable[[int, int], np.ndarray], p: TaggedPartition) -> float:
    """The one summation rule: sum of values(i, j) * |cell| in cell order.

    For each block of _BLOCK cells [i, j) in cell order, the block's lengths
    are multiplied by values(i, j), the integrand on those cells, and
    np.sum of the products is added to a Python float.  The integrand is
    evaluated one block at a time, so its values never span the partition.
    Finite terms whose products or sum leave the float range raise
    NonFiniteValue.
    """
    points, n = p.points, len(p)
    total = 0.0
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        v = values(i, j)  # outside the errstate below: the caller's applies
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
    most 2**16 tags at a time, and the block totals are added in cell order,
    so the result does not depend on BLAS or its thread count.  Called by
    gauge_integrate or a criterion checker, it runs on a worker thread
    while the caller's thread evaluates the gauge for the next partition,
    so f and the gauge must not share unsynchronised mutable state.
    """
    tags = p.tags
    return _block_sum(lambda i, j: _eval_values(f, tags[i:j]), p)


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


def _partitions(
    domain: Interval, gauge: Gauge, seed_prefix: list[int], trials: int, cousin: bool
) -> Iterator[TaggedPartition]:
    """The sampled partitions of one gauge, built one at a time.

    Yields the cousin partition first when `cousin` is true, then `trials`
    seeded partitions, trial t drawn from the seed [*seed_prefix, t].  A
    seed entry that is not a non-negative integer raises ValueError before
    the first build.  Both builders are looked up as this module's globals
    at every call, so a rebinding of either name reaches every build.
    """
    _check_seed(seed_prefix)
    if cousin:
        yield cousin_partition(domain, gauge)
    for t in range(trials):
        yield _random_partition(domain, gauge, [*seed_prefix, t])


def _overlapped(total: Callable, parts: Iterator) -> list:
    """[total(i, p) for i, p in enumerate(parts)], each total overlapping
    the build of the next partition.

    total(i, p_k) runs on a one-worker executor while this thread builds
    p_{k+1}, and is awaited before total(i + 1, p_{k+1}) is submitted, so
    at most one total is in flight, on the same worker thread, and no thread
    outlives the call.  This frame drops p_k before it asks for p_{k+1}, so
    a partition is freed as soon as it is summed.  Each total runs in a copy
    of the caller's context, so the caller's np.errstate reaches the
    integrand.  Errors surface in sequence order: if total k fails and
    building p_{k+1} fails too, total k's error is raised, as if p_{k+1}
    had never been built.
    """
    results: list = []
    pending: list = []  # the future of the total in flight, if any
    with ThreadPoolExecutor(1, thread_name_prefix="gaugequad-sum") as pool:
        try:
            for p in parts:
                if pending:
                    results.append(pending.pop().result())
                # i is len(results): enumerate's reused tuple would keep p_k alive
                pending.append(pool.submit(contextvars.copy_context().run, total, len(results), p))
                del p
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
    Raises DepthExceeded if that happens on the very first level, and
    InvalidTolerance for tol <= 0.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidTolerance(f"tol must be positive, got {tol}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")

    last: IntegralEstimate | None = None
    eps = tol
    for level in range(_MAX_LEVELS):
        try:
            parts = _partitions(domain, gf.at(eps), [seed, level], trials, True)
            sized = _overlapped(lambda i, p: (len(p), riemann_sum(f, p)), parts)
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


def riemann_unboundedness_witness(
    f: RealFunction,
    domain: Interval,
    delta_const: float,
    bound: float,
) -> TaggedPartition:
    """A partition with all cells shorter than delta_const whose Riemann
    sum exceeds `bound` in magnitude.

    Demonstrates that the constant-delta (ordinary Riemann) rule cannot
    converge for an integrand unbounded near the domain's left endpoint:
    the first cell's tag is swept geometrically toward that endpoint until
    |f(tag)| * length dominates the rest of the sum.  Raises
    WitnessNotFound when the sweep exhausts its probe budget, as happens
    for bounded integrands.
    """
    if not (math.isfinite(delta_const) and delta_const > 0.0 and math.isfinite(bound)):
        raise ValueError(f"need finite delta_const > 0 and bound: {delta_const}, {bound}")
    n = max(2, math.ceil(domain.length / (0.9 * delta_const)))
    edges = np.linspace(domain.a, domain.b, n + 1)
    lefts, rights = edges[:-1], edges[1:]
    tags = 0.5 * (lefts + rights)
    first_len = float(rights[0] - lefts[0])

    rest_sum = riemann_sum(f, TaggedPartition(tags[1:], edges[1:]))
    target = abs(bound) + abs(rest_sum)

    # geometric sweep of candidate tags toward domain.a, batched
    ratio = 0.9
    batch = 1024
    offset = first_len * ratio
    probes_left = _WITNESS_PROBES
    while probes_left > 0 and offset > 0.0:
        k = np.arange(min(batch, probes_left))
        offs = offset * ratio**k
        cand = domain.a + offs
        cand = cand[cand > domain.a]
        if cand.size == 0:
            break
        vals = np.abs(_eval_values(f, cand)) * first_len
        hit = np.nonzero(vals > target)[0]
        if hit.size:
            t0 = float(cand[hit[0]])
            new_tags = tags.copy()
            new_tags[0] = t0
            return TaggedPartition(new_tags, edges)
        probes_left -= cand.size
        offset = float(offs[-1]) * ratio
    raise WitnessNotFound(
        f"no tag with |f(tag)|*{first_len:.3g} exceeding {target:.3g} found"
    )
