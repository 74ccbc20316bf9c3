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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DepthExceeded, InvalidGauge, LengthMismatch

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

#: Trial orders are drawn this many cells at a time (see `_trial_orders`).
_DRAW_BLOCK = 1 << 16


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


def _eval_points(
    fn: Callable, xs: np.ndarray, ok, error, what: str, dtype=float, lead=()
) -> np.ndarray:
    """fn on every point of xs, as a writable array of xs's shape whose
    values all pass ok: the one evaluation of every user callable.

    One array call fn(*lead, xs), coerced to dtype, where lead holds
    arrays aligned with xs, such as a family's indices; a callable that
    rejects arrays with TypeError or ValueError is called once per point,
    with the matching entry of each lead array before the point.  dtype=None
    keeps the result's own dtype, so ok sees the values before any cast,
    and an array of xs's shape comes back without a copy.  A result of
    another shape must broadcast to xs's shape, and is then copied, not
    returned as a read-only stride-0 view; any other shape raises
    LengthMismatch naming both.  ok maps the values to a bool mask, and the
    first point where it is false raises error(f"{what} at x=...").
    """
    try:
        out = np.asarray(fn(*lead, xs), dtype=dtype)
    except (TypeError, ValueError):
        out = np.array([fn(*at, float(x)) for *at, x in zip(*lead, xs)], dtype=dtype)
    if out.shape != xs.shape:
        try:
            out = np.broadcast_to(out, xs.shape).copy()
        except ValueError:
            raise LengthMismatch(
                f"result of shape {out.shape} does not broadcast to "
                f"the points' shape {xs.shape}"
            ) from None
    good = ok(out)
    if not good.all():
        raise error(f"{what} at x={xs[~good][0]}")
    return out


@dataclass(frozen=True)
class Gauge:
    """A strictly positive fineness rule delta(x).

    `delta` may be any callable on floats; array-capable callables are
    exploited for speed but not required.  On an array its result must
    broadcast to the array's shape.  A scalar call is one `eval_many` on a
    one-point array, so values are checked in one place.
    """

    delta: Callable

    def __call__(self, x: float) -> float:
        return float(self.eval_many(np.array([x], dtype=float))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the gauge on an array of points, validating positivity."""
        return _eval_points(
            self.delta, xs, lambda d: np.isfinite(d) & (d > 0.0),
            InvalidGauge, "gauge non-positive or non-finite",
        )


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
    of a 3 x m block D in the same way.  Each frontier-length temporary
    goes at its last use: span after the mid test, the code, first and
    taken arrays once the index arrays ti and pi exist, and the old D and
    dM once the next D is gathered, so the next B is allocated beside only
    this level's B, the next D and pi.  A level whose spans are not all
    positive raises DepthExceeded: its parent reached adjacent floats.  For
    finite doubles with gradual underflow a - b > 0 iff a > b, so this is
    the test u < mid < v on every split.

    Draws and tests.  A seeded build's draws run on `pool`'s one helper
    thread, which runs only these draws and the final tag sort, never the
    gauge.  A level's split fractions r are drawn by rng.random(out=M)
    straight into its block, queued as soon as the block is allocated, so
    they are drawn while this thread gathers the pending cells into it.
    Once they are in, the helper draws the level's trial orders (see
    `_trial_orders`) while this thread forms M = (r * 0.5 + 0.25) * span + U
    in place, runs the tests and calls the gauge.  Generator.uniform(0.25,
    0.75, n) forms its values from the same doubles r as r * 0.5 + 0.25,
    so M is U + span * uniform(0.25, 0.75, n).  Each draw is awaited before
    the next is queued, so the generator makes the sequential build's draws
    in the same order, and this thread never touches it.  The mid test
    (M - U < dM) & (V - M < dM) reuses span's buffer for both gaps, and the
    trial orders are ORed into the code after it.

    Compaction.  The accept mask is turned into index arrays once per
    level, the accepted positions ti and the pending ones, and every gather
    is a `take` on them.  Cell i's candidates u, mid and v sit at B[i],
    B[oM + i] and B[oV + i], with off = (0, oM, oV) = (0, 3m, m), or
    (0, 2, 1) at level 0, so each accepted tag is the one element
    B[ti + off[first]], the very float that choosing among gathered copies
    of U, M and V would give; the offsets are added into ti in place, once
    the left ends U[ti] are taken.  The pending cells' gauge values and
    then their (u, mid, v) are gathered straight into the next level's D
    and B.

    Order.  Accepted cells tile [a, b], so their left ends are distinct and
    sorting them by value gives every point but b.  The tags need no
    permutation either: in position order tag_i <= right_i = left_{i+1} <=
    tag_{i+1}, so sorting them by value puts them in position order, and
    equal tags are equal bytes.  Floats of equal value differ in bytes only
    as -0.0 and +0.0, and all zero tags are copies of one float: a tag is a
    division point or the split point of its own cell, the division points
    strictly increase so at most one is zero, and a split-point tag of zero
    lies strictly inside its cell, which leaves no division point at zero.
    The helper sorts the tags while this thread concatenates and sorts the
    left ends.  The levels run in
    `_levels`, so the last level's arrays are gone before these sorts and
    concatenations, and the `with` block joins the helper before the build
    returns or raises.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="gaugequad-build") as pool:
        acc_t, acc_u = _levels(domain, g, rng, pool)
        tags = np.concatenate(acc_t)
        del acc_t
        tags_sorted = pool.submit(tags.sort)
        points = np.empty(tags.size + 1)
        np.concatenate(acc_u, out=points[:-1])
        del acc_u
        points[:-1].sort()
        points[-1] = domain.b
        tags_sorted.result()
    return tags, points


def _trial_orders(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.integers(0, 6, n) shifted left 3, as uint8: the values and the
    generator state of that one call, drawn in `_DRAW_BLOCK`-cell blocks so
    that no frontier-length int64 array exists."""
    out = np.empty(n, dtype=np.uint8)
    for i in range(0, n, _DRAW_BLOCK):
        block = rng.integers(0, 6, min(_DRAW_BLOCK, n - i))
        np.left_shift(block, 3, out=out[i:i + _DRAW_BLOCK], casting="unsafe")
    return out


def _levels(
    domain: Interval, g: Gauge, rng: np.random.Generator | None, pool: ThreadPoolExecutor
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """`_build_fine`'s level loop: each level's accepted tags and left ends."""
    B = np.empty(3)
    B[0], B[1] = domain.a, domain.b
    n, oV, oM = 1, 1, 2
    if rng is not None:
        fractions = pool.submit(rng.random, out=B[2:])
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
            np.add(U, V, out=M)
            M *= 0.5
        else:
            fractions.result()
            orders = pool.submit(_trial_orders, rng, n)
            M *= 0.5
            M += 0.25
            M *= span
            M += U
        code = (span < dU).view(np.uint8)
        code |= (span < dV).view(np.uint8) << 2
        dM = g.eval_many(M)
        np.subtract(M, U, out=span)
        mid = span < dM
        np.subtract(V, M, out=span)
        mid &= span < dM
        del span
        code |= mid.view(np.uint8) << 1
        del mid
        if rng is not None:
            code |= orders.result()
        first = _FIRST.take(code)
        del code
        taken = first < 3
        ti = np.flatnonzero(taken)
        pi = np.flatnonzero(~taken)
        del taken
        first = first.take(ti)
        acc_u.append(U.take(ti))
        ti += np.array((0, oM, oV)).take(first)
        acc_t.append(B.take(ti))
        del ti
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
        D = np.empty((3, m))
        dU.take(pi, out=D[0], mode="clip")
        dM.take(pi, out=D[1], mode="clip")
        dV.take(pi, out=D[2], mode="clip")
        del dM
        dU, dV = D[:2].ravel(), D[1:].ravel()
        C = np.empty((5, m))
        if rng is not None:
            fractions = pool.submit(rng.random, out=C[3:].ravel())
        U.take(pi, out=C[0], mode="clip")
        M.take(pi, out=C[1], mode="clip")
        V.take(pi, out=C[2], mode="clip")
        del pi
        B, n, oV, oM = C.ravel(), 2 * m, m, 3 * m
    return acc_t, acc_u


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

    The build's draws and its final tag sort run on one helper thread
    while this thread gathers cells and evaluates the gauge; the gauge is
    only ever called from the calling thread, and the helper is joined
    before this returns or raises.
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
