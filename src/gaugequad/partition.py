"""Intervals, tagged partitions, gauges, and fineness machinery.

A gauge is a strictly positive function delta(x) on an interval.  A tagged
partition {(x_i, [u_{i-1}, u_i])} is held as its division points
u_0 < ... < u_n and its n tags, and is delta-fine when every cell satisfies
x_i - u_{i-1} < delta(x_i) and u_i - x_i < delta(x_i).  Fine partitions
always exist on a compact interval (Cousin's lemma); `cousin_partition`
constructs one by deterministic bisection and `random_delta_fine_partition`
by seeded randomized bisection.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DepthExceeded, InvalidGauge

__all__ = [
    "Interval",
    "TaggedPartition",
    "Gauge",
    "is_delta_fine",
    "cousin_partition",
    "random_delta_fine_partition",
]

#: Bisection depth limit.  2**-64 is below the spacing of doubles on
#: [0, 1], so hitting it means the gauge demands unrepresentable cells.
#: `_build_fine` reads it at call time.
_MAX_DEPTH = 64

#: _FIRST[8 * perm + bits] is the first candidate (0 left, 1 mid, 2 right)
#: in trial order `perm` whose bit is set in the 3-bit fineness code `bits`,
#: or 3 when none is.  perm indexes itertools.permutations(range(3)); 0 is
#: the fixed order (left, mid, right).
_FIRST = np.array(
    [
        next((c for c in order if bits >> c & 1), 3)
        for order in itertools.permutations(range(3))
        for bits in range(8)
    ],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class Interval:
    """A nondegenerate compact interval [a, b]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.b - self.a):
            raise ValueError(
                f"interval endpoints and length must be finite, got [{self.a}, {self.b}]"
            )
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def _eval_points(fn: Callable, xs: np.ndarray, dtype=float) -> np.ndarray:
    """fn on every point of xs: one array call, else one call per point.

    A result of another shape is broadcast and copied, so the caller gets
    a writable array of xs's shape, not a read-only stride-0 view; a
    callable that rejects arrays with TypeError or ValueError is called
    once per point.
    """
    try:
        out = np.asarray(fn(xs), dtype=dtype)
        if out.shape != xs.shape:
            out = np.broadcast_to(out, xs.shape).copy()
    except (TypeError, ValueError):
        out = np.array([fn(float(x)) for x in xs], dtype=dtype)
    return out


@dataclass(frozen=True)
class Gauge:
    """A strictly positive fineness rule delta(x).

    `delta` may be any callable on floats; array-capable callables are
    exploited for speed but not required.  A scalar call is one
    `eval_many` on a one-point array, so values are checked in one place.
    """

    delta: Callable

    def __call__(self, x: float) -> float:
        return float(self.eval_many(np.array([x], dtype=float))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the gauge on an array of points, validating positivity."""
        out = _eval_points(self.delta, xs)
        if not np.all(np.isfinite(out) & (out > 0.0)):
            bad = xs[~(np.isfinite(out) & (out > 0.0))]
            raise InvalidGauge(f"gauge non-positive or non-finite at x={bad[0]}")
        return out


class TaggedPartition:
    """An ordered tagged partition of a compact interval, held as its points.

    Cell i is [points[i], points[i + 1]] with tags[i] inside (either end
    allowed), so cells abut and span [points[0], points[-1]] by
    construction.  The cell lengths telescope: each rounded difference is
    positive with relative error below 2**-53, so their fsum is within two
    ulps of domain.length, inside the 8-ulp slack the tests assert.
    Instances are immutable after construction.
    """

    __slots__ = ("domain", "tags", "points")

    def __init__(self, tags, points) -> None:
        tags = np.ascontiguousarray(tags, dtype=float)
        points = np.ascontiguousarray(points, dtype=float)
        if not (tags.ndim == 1 and points.shape == (tags.size + 1,)):
            raise ValueError("need 1-d tags and 1-d points with one more entry")
        if tags.size == 0:
            raise ValueError("partition must contain at least one cell")
        domain = Interval(float(points[0]), float(points[-1]))
        if not np.all(points[:-1] < points[1:]):
            raise ValueError("every cell must have positive length")
        if not np.all((points[:-1] <= tags) & (tags <= points[1:])):
            raise ValueError("every tag must lie inside its cell")
        tags.setflags(write=False)
        points.setflags(write=False)
        self.domain = domain
        self.tags = tags
        self.points = points

    @property
    def lefts(self) -> np.ndarray:
        return self.points[:-1]

    @property
    def rights(self) -> np.ndarray:
        return self.points[1:]

    @property
    def lengths(self) -> np.ndarray:
        return self.rights - self.lefts

    def __len__(self) -> int:
        return self.tags.size

    def __repr__(self) -> str:
        return (
            f"TaggedPartition({len(self)} cells on "
            f"[{self.domain.a}, {self.domain.b}])"
        )


def is_delta_fine(p: TaggedPartition, g: Gauge) -> bool:
    """True iff tag - left < delta(tag) and right - tag < delta(tag), all cells."""
    d = g.eval_many(p.tags)
    return bool(np.all(p.tags - p.lefts < d) and np.all(p.rights - p.tags < d))


def _build_fine(
    domain: Interval, g: Gauge, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Shared bisection engine behind both partition constructors.

    Frontier.  Each depth level holds its pending cells [U[i], V[i]] with
    the gauge values dU, dV at their ends, carried down from the level that
    created them, so the gauge is called once on [a], once on [b] and once
    per level on the new split points M.  A cell is accepted as soon as one
    of its candidate tags {u, mid, v} covers it (both one-sided gaps below
    delta(candidate)); otherwise it is bisected.  The tags at u and v leave
    gaps (0, v - u) and (v - u, 0), so each cell's three tests form a 3-bit
    uint8 code and the tag is the first covering candidate in trial order,
    read from `_FIRST`.  With rng=None the split point is the exact
    midpoint and candidates are tried in the fixed order (left, mid,
    right); with an rng the split point is uniform in the middle half and
    the trial order is a per-cell random permutation, drawn in frontier
    order.

    Level block.  Each level's cells live in one flat float block
    B = [u_p | mid_p | v_p | M]: the m cells its parent level left pending,
    as their left ends, split points and right ends, then room for this
    level's n = 2m split points.  The frontier is all left children
    [u, mid] then all right children [mid, v], so U = B[:2m] and
    V = B[m:3m] are views and the split points are written into B[3m:].
    Level 0 is [a, b, M] with n = 1.  The gauge values dU and dV are views
    of a 3 x m block D in the same way.  A level whose spans are not all
    positive raises DepthExceeded: its parent reached adjacent floats.  For
    finite doubles with gradual underflow a - b > 0 iff a > b, so this is
    the test u < mid < v on every split.

    Draws and tests.  The seeded split fraction is rng.random(n) * 0.5 +
    0.25, formed in place, which is how Generator.uniform(0.25, 0.75, n)
    forms it from the same doubles, so the values and the generator state
    are those of that call; then M = U + span * w.  Once the end tests
    have read span, its buffer holds max(M - U, V - M), and w is dropped
    before the gauge runs.  The mid test max(M - U, V - M) < dM equals
    (M - U < dM) & (V - M < dM), as no operand is nan.

    Compaction.  The accept mask is turned into index arrays once per
    level, the accepted positions ti and the pending ones, and every gather
    is a `take` on them.  Cell i's candidates u, mid and v sit at B[i],
    B[oM + i] and B[oV + i], with off = (0, oM, oV) = (0, 3m, m), or
    (0, 2, 1) at level 0, so each accepted tag is the one element
    B[ti + off[first]], the very float that choosing among gathered copies
    of U, M and V would give.  The pending cells' (u, mid, v) and their
    gauge values are gathered straight into the next level's B and D.

    Order.  Accepted cells tile [a, b], so their left ends are distinct and
    sorting them by value gives every point but b.  The tags need no
    permutation either: in position order tag_i <= right_i = left_{i+1} <=
    tag_{i+1}, so sorting them by value puts them in position order, and
    equal tags are equal bytes.  Floats of equal value differ in bytes only
    as -0.0 and +0.0, and all zero tags are copies of one float: a tag is a
    division point or the split point of its own cell, the division points
    strictly increase so at most one is zero, and a split-point tag of zero
    lies strictly inside its cell, which leaves no division point at zero.
    """
    B = np.empty(3)
    B[0], B[1] = domain.a, domain.b
    n, oV, oM = 1, 1, 2
    dU = g.eval_many(B[:1])
    dV = g.eval_many(B[1:2])
    acc_t: list[np.ndarray] = []
    acc_u: list[np.ndarray] = []

    for depth in range(_MAX_DEPTH + 1):
        U, V, M = B[:n], B[oV:oV + n], B[oM:]
        span = V - U
        if not (span > 0.0).all():
            raise DepthExceeded(
                "bisection reached adjacent floats without acceptance; "
                "gauge is unrepresentable there"
            )
        if rng is None:
            w = None
            np.add(U, V, out=M)
            M *= 0.5
            code = np.zeros(n, dtype=np.uint8)
        else:
            w = rng.random(n)
            w *= 0.5
            w += 0.25
            w *= span
            np.add(U, w, out=M)
            code = rng.integers(0, 6, n).astype(np.uint8)
            code <<= 3
        code |= (span < dU).view(np.uint8)
        code |= (span < dV).view(np.uint8) << 2
        np.subtract(M, U, out=span)
        np.maximum(span, np.subtract(V, M, out=w), out=span)
        del w
        dM = g.eval_many(M)
        code |= (span < dM).view(np.uint8) << 1
        first = _FIRST.take(code)
        taken = first < 3
        ti = np.flatnonzero(taken)
        at = np.array((0, oM, oV)).take(first.take(ti))
        at += ti
        acc_t.append(B.take(at))
        acc_u.append(U.take(ti))
        pi = np.flatnonzero(~taken)
        m = pi.size
        if m == 0:
            break
        if depth == _MAX_DEPTH:
            raise DepthExceeded(
                f"{m} cells still unacceptable at depth "
                f"{_MAX_DEPTH}; gauge is finer than float spacing allows"
            )
        # pi is in range, so mode="clip" clips nothing; it spares the
        # buffered copy that take(out=...) makes under the default "raise".
        C, D = np.empty((5, m)), np.empty((3, m))
        U.take(pi, out=C[0], mode="clip")
        M.take(pi, out=C[1], mode="clip")
        V.take(pi, out=C[2], mode="clip")
        dU.take(pi, out=D[0], mode="clip")
        dM.take(pi, out=D[1], mode="clip")
        dV.take(pi, out=D[2], mode="clip")
        B, n, oV, oM = C.ravel(), 2 * m, m, 3 * m
        dU, dV = D[:2].ravel(), D[1:].ravel()

    tags = np.concatenate(acc_t)
    tags.sort()
    points = np.empty(tags.size + 1)
    np.concatenate(acc_u, out=points[:-1])
    points[:-1].sort()
    points[-1] = domain.b
    return tags, points


def cousin_partition(domain: Interval, g: Gauge) -> TaggedPartition:
    """Deterministic delta-fine partition by recursive bisection.

    Accepts a subinterval as soon as one of the candidate tags
    {left, midpoint, right} (tried in that order) satisfies the two
    one-sided fineness inequalities; otherwise bisects at the midpoint.
    Identical inputs yield identical output.

    Raises DepthExceeded when depth 64 is reached with cells still
    unacceptable.
    """
    return TaggedPartition(*_build_fine(domain, g, None))


def random_delta_fine_partition(
    domain: Interval, g: Gauge, seed: int | Sequence[int]
) -> TaggedPartition:
    """Seeded randomized delta-fine partition.

    Randomness enters through bisection points (uniform in the middle half
    of each cell) and through the per-cell candidate-tag order.  The result
    is deterministic for a fixed seed, which may be an int or a sequence of
    ints such as (seed, level, trial).  An entry that is not a non-negative
    integer raises ValueError before the build starts.
    """
    _check_seed(seed)
    return TaggedPartition(*_build_fine(domain, g, np.random.default_rng(seed)))


def _check_seed(seed) -> None:
    """ValueError naming `seed` unless every entry is a non-negative integer.

    numpy rejects a negative or non-integer entry too, but with an untyped
    error and only once its generator is made, which a sampling loop
    reaches after other builds.
    """
    entries = np.ravel(np.array(seed, dtype=object))
    if not all(isinstance(s, numbers.Integral) and s >= 0 for s in entries):
        raise ValueError(f"seed entries must be non-negative integers, got {seed!r}")
