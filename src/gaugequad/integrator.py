"""Riemann and Stieltjes sums over tagged partitions, and the gauge integral.

`gauge_integrate` estimates an integral by driving an accuracy demand eps
downward through a gauge family, sampling several fine partitions at each
level, and accepting once the sampled Riemann sums agree to within the
requested tolerance.  Agreement of sampled sums is evidence, not proof: the
definition quantifies over all fine partitions, which is uncheckable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DepthExceeded,
    InvalidTolerance,
    NonFiniteValue,
    WitnessNotFound,
)
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
    "RealFunction",
    "IntegralEstimate",
    "GaugeFamily",
    "smooth_gauge_family",
    "riemann_sum",
    "stieltjes_sum",
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
    spread met the requested tolerance.
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


def smooth_gauge_family(scale: float = 1.0) -> GaugeFamily:
    """Constant-gauge family delta_eps = scale * eps**(2/3).

    Suited to integrands with moderate derivatives: the constructors
    produce midpoint-dominated partitions, so sampled sums agree to
    O(delta**1.5) = O(eps) and the family converges at or near its first
    level.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def at(eps: float) -> Gauge:
        d = scale * eps ** (2.0 / 3.0)
        return Gauge(lambda x, _d=d: np.full_like(np.asarray(x, dtype=float), _d))

    return GaugeFamily(at)


def _eval_values(f: RealFunction, xs: np.ndarray) -> np.ndarray:
    """Evaluate an integrand on an array, rejecting non-finite values."""
    out = _eval_points(f, xs)
    if not np.all(np.isfinite(out)):
        bad = xs[~np.isfinite(out)]
        raise NonFiniteValue(f"integrand non-finite at x={bad[0]}")
    return out


def _dot(values: np.ndarray, weights: np.ndarray, compensated: bool) -> float:
    """Single summation path shared by every sum operation.

    The plain path is a BLAS dot product, whose order of accumulation
    depends on the BLAS kernel and thread count, so its last bits can vary
    between machines and thread settings.  With compensated=True the
    products are accumulated exactly via fsum, independent of order.
    """
    if compensated:
        return math.fsum(values * weights)
    return float(values @ weights)


def riemann_sum(f: RealFunction, p: TaggedPartition, compensated: bool = False) -> float:
    """(P) sum of f(tag) * |cell| over the partition, in cell order."""
    return _dot(_eval_values(f, p.tags), p.lengths, compensated)


def stieltjes_sum(
    f: RealFunction,
    g: RealFunction,
    p: TaggedPartition,
    compensated: bool = False,
) -> float:
    """Sum of f(tag) * (g(right) - g(left)), the increment-function sum.

    With g = identity the increments reduce to the cell lengths and the
    result equals riemann_sum bitwise (same values, same summation order).
    """
    g_right = _eval_values(g, p.rights)
    g_left = _eval_values(g, p.lefts)
    return _dot(_eval_values(f, p.tags), g_right - g_left, compensated)


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


def gauge_integrate(
    f: RealFunction,
    gf: GaugeFamily,
    domain: Interval,
    tol: float,
    trials: int = 4,
    seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> IntegralEstimate:
    """Estimate the gauge integral of f over the domain.

    Iterates eps downward (tol, tol/2, tol/4, ...).  At each level it
    builds the deterministic cousin partition plus `trials` seeded random
    partitions for gf.at(eps) and computes their Riemann sums.  Once
    max - min of the sums is <= tol the run converges with value at the
    midpoint of [min, max].

    Deterministic given (seed, tol, trials): per-trial generators are
    derived from (seed, level, trial index), so trials are order
    independent.

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
            gauge = gf.at(eps)
            base = cousin_partition(domain, gauge, max_depth)
            sums = [riemann_sum(f, base)]
            for t in range(trials):
                rng_seed = [seed, level, t]
                p = _random_partition(domain, gauge, rng_seed, max_depth)
                sums.append(riemann_sum(f, p))
        except DepthExceeded:
            if last is None:
                raise
            break
        lo, hi = min(sums), max(sums)
        spread = hi - lo
        last = IntegralEstimate(
            value=0.5 * (lo + hi),
            spread=spread,
            cells_used=len(base),
            trials=trials,
            converged=spread <= tol,
        )
        if last.converged or len(base) > _MAX_CELLS:
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
    if delta_const <= 0.0:
        raise ValueError("delta_const must be positive")
    n = max(2, math.ceil(domain.length / (0.9 * delta_const)))
    edges = np.linspace(domain.a, domain.b, n + 1)
    lefts, rights = edges[:-1], edges[1:]
    tags = 0.5 * (lefts + rights)
    first_len = float(rights[0] - lefts[0])

    rest = _eval_values(f, tags[1:])
    rest_sum = float(rest @ (rights[1:] - lefts[1:]))
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
            return TaggedPartition(domain, new_tags, lefts, rights)
        probes_left -= cand.size
        offset = float(offs[-1]) * ratio
    raise WitnessNotFound(
        f"no tag with |f(tag)|*{first_len:.3g} exceeding {target:.3g} found"
    )
