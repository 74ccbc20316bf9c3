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

import contextvars
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

#: A seeded level's draws and a tag sort of at least this many cells run on
#: the build helper, and so does the second half of the per-cell pass, gauge
#: calls included, of a level of at least twice as many (see `_build_fine`).
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class Interval:
    """A nondegenerate compact interval [a, b] of real end points.

    The ends are stored as the floats `_float` reads.  An end point that is
    not a real number, a numeric string included, raises ValueError, as
    does one past the float range.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = _float(self.a), _float(self.b)
        if a is None or b is None:
            raise ValueError(f"interval endpoints must be real numbers, got {self.a!r}, {self.b!r}")
        if not math.isfinite(b - a):
            raise ValueError(f"interval endpoints and length must be finite, got [{a}, {b}]")
        if not a < b:
            raise ValueError(f"interval requires a < b, got [{a}, {b}]")
        vars(self).update(a=a, b=b)  # past the frozen dataclass's __setattr__


def _eval_points(
    fn: Callable, xs: np.ndarray, ok, error, what: str, bad: str, dtype=float, lead=()
) -> np.ndarray:
    """fn on every point of xs, as a writable array of xs's shape whose
    values are all real and pass ok: the one evaluation of every user
    callable.

    One array call fn(*lead, xs), where lead holds arrays aligned with xs,
    such as a family's indices; only a callable that rejects arrays with
    TypeError or ValueError is called once per point, with the matching
    entry of each lead array before the point.  Either result is then
    converted once.  A result of another shape must broadcast to xs's
    shape, and is then copied, not returned as a read-only stride-0 view;
    any other shape, and a ragged result, raises LengthMismatch after the
    one call.  A value that is not a real number, such as a complex value
    with a nonzero imaginary part, a string, even "1.0", or an object that
    float() rejects, raises error(f"{what} not real at x=...") at the
    first such point; then the values are coerced to dtype.  An object or
    string result is converted entry by entry with `_float`, so an integer
    past the float range becomes an infinity.  dtype=None keeps a numeric
    result's own dtype, so ok sees the values before any cast, and an array
    of xs's shape comes back without a copy.  ok maps the values to a bool
    mask, and the first point where it is false raises
    error(f"{what} {bad} at x=...").
    """
    try:
        out = fn(*lead, xs)
    except (TypeError, ValueError):
        out = [fn(*at, float(x)) for *at, x in zip(*lead, xs)]
    try:
        out = np.asarray(out)
    except ValueError:  # a ragged result
        raise LengthMismatch(f"a ragged result does not broadcast to shape {xs.shape}") from None
    if out.shape != xs.shape:
        try:
            out = np.broadcast_to(out, xs.shape).copy()
        except ValueError:
            raise LengthMismatch(
                f"result of shape {out.shape} does not broadcast to "
                f"the points' shape {xs.shape}"
            ) from None
    real = None  # a mask of the real values, once one is needed
    if out.dtype.kind == "c":  # a cast would keep only the real parts
        real = out.imag == 0.0
        out = out.real
    elif out.dtype.kind not in "biuf":  # objects or strings
        values = [_float(v) for v in out.flat]
        real = np.array([v is not None for v in values]).reshape(xs.shape)
        out = np.array([np.nan if v is None else v for v in values]).reshape(xs.shape)
    if real is not None and not real.all():
        raise error(f"{what} not real at x={xs[~real][0]}")
    out = np.asarray(out, dtype=dtype)
    good = ok(out)
    if not good.all():
        raise error(f"{what} {bad} at x={xs[~good][0]}")
    return out


def _float(v) -> float | None:
    """float(v), an infinity for a number past the float range, or None for
    a value that is not a real number, a numeric string included."""
    if isinstance(v, (str, bytes)):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf
    except (TypeError, ValueError):
        return None


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
        return float(self.eval_many([x])[0])

    def eval_many(self, xs) -> np.ndarray:
        """Evaluate the gauge on an array of points, validating positivity.

        The points are converted to one float array, which is what `delta`
        is called on.
        """
        return _eval_points(
            self.delta, np.asarray(xs, dtype=float), lambda d: np.isfinite(d) & (d > 0.0),
            InvalidGauge, "gauge", "non-positive or non-finite",
        )


class TaggedPartition:
    """An ordered tagged partition of a compact interval, held as its points.

    Cell i is [points[i], points[i + 1]] with tags[i] inside (either end
    allowed), so cells abut and span [points[0], points[-1]] by
    construction.  The cell lengths telescope: each rounded difference is
    positive with relative error below 2**-53, so their fsum is within two
    ulps of b - a, inside the 8-ulp slack the tests assert.
    Instances are immutable after construction.
    """

    __slots__ = ("domain", "tags", "points")

    def __init__(self, tags, points) -> None:
        tags = np.ascontiguousarray(tags, dtype=float)
        points = np.ascontiguousarray(points, dtype=float)
        if not (tags.ndim == 1 and tags.size > 0 and points.shape == (tags.size + 1,)):
            raise ValueError("need at least one cell: 1-d tags and 1-d points with one more entry")
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
    return bool(np.all(p.tags - p.points[:-1] < d) and np.all(p.points[1:] - p.tags < d))


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
    goes at its last use: span after the per-cell pass, the code, first and
    taken arrays once the index arrays ti and pi exist, and the old D and
    dM once the next D is gathered, so the next B is allocated beside only
    this level's B, the next D and pi.  A level whose spans are not all
    positive raises DepthExceeded: its parent reached adjacent floats.  For
    finite doubles with gradual underflow a - b > 0 iff a > b, so this is
    the test u < mid < v on every split.

    Draws and tests.  A seeded level draws its split fractions r with
    rng.random(out=M), straight into its block, then its trial orders (see
    `_trial_orders`).  Generator.uniform(0.25, 0.75, n) forms its values
    from the same doubles r as r * 0.5 + 0.25, so M = (r * 0.5 + 0.25) *
    span + U, formed in place, is U + span * uniform(0.25, 0.75, n).  A
    level of fewer than `_DRAW_BLOCK` cells makes both draws on this thread
    once its spans are checked.  A larger level's two draws are queued on
    `pool`'s one helper thread as soon as the previous level allocates the
    block, so the helper draws them while this thread gathers the pending
    cells into it.  Each level's per-cell pass forms the two end tests, M,
    the gauge values dM, the mid test (M - U < dM) & (V - M < dM) in span's
    buffer, the code with the trial orders ORed in, and the index arrays;
    it awaits queued fractions after its end tests and queued trial orders
    after its mid test.  A level of fewer than 2 * `_DRAW_BLOCK` cells runs
    it on this thread.  A larger level, once its spans are checked, runs it
    on its first n // 2 cells here and on the rest on the helper at the
    same time, so the gauge is called once per half, and on two threads;
    the helper's half runs in a copy of this thread's context, so the
    caller's np.errstate applies there too.  An error of the first half
    wins, as its points come first in frontier order.  One rule orders the
    helper's work: it runs its tasks in submission order, and this thread
    submits a level's draws, then its second half, then the next level's
    draws.  So the helper's half finds its level's draws made, the first
    half may run while the trial orders are still being drawn, and every
    await of a level's draws returns before the next level draws or queues
    any: the generator runs on one thread at a time and makes the
    sequential build's draws in the same order.  Both halves read the
    level's futures from `queued`, which this thread rebinds only after the
    helper's half has returned.  The helper allocates only its half's gauge
    values and index arrays; every array that outlives the level is
    allocated on this thread.  The helper's thread starts at its first
    task, as `ThreadPoolExecutor` starts threads on submit: a build whose
    levels and partition all stay below `_DRAW_BLOCK` cells starts no
    thread, and one whose levels stay below 2 * `_DRAW_BLOCK` cells calls
    the gauge only on this thread.

    Compaction.  The accept mask is turned into index arrays once per
    level, or once per half, the accepted positions ti and the pending
    ones, counted from the first cell lo of their part, and every gather
    is a `take` on them.  Cell lo + i's candidates u, mid and v sit at
    B[lo + i], B[oM + lo + i] and B[oV + lo + i], with (oM, oV) = (3m, m),
    or (2, 1) at level 0, so each accepted tag is the one element
    B[ti + off[first]], off = (lo, oM + lo, oV + lo), the very float that
    choosing among gathered copies of U, M and V would give; the offsets
    are added into ti in place, once the left ends are taken.  The pending
    cells' gauge values and then their (u, mid, v) are gathered straight
    into the next level's D and B, the second half's after the first's.

    Order.  Accepted cells tile [a, b], so their left ends are distinct and
    sorting them by value gives every point but b.  The tags need no
    permutation either: in position order tag_i <= right_i = left_{i+1} <=
    tag_{i+1}, so sorting them by value puts them in position order, and
    equal tags are equal bytes.  Floats of equal value differ in bytes only
    as -0.0 and +0.0, and all zero tags are copies of one float: a tag is a
    division point or the split point of its own cell, the division points
    strictly increase so at most one is zero, and a split-point tag of zero
    lies strictly inside its cell, which leaves no division point at zero.
    In a build of at least `_DRAW_BLOCK` cells the helper sorts the tags
    while this thread concatenates and sorts the left ends; a smaller build
    sorts both on this thread.  The levels run in `_levels`, so the last
    level's arrays are gone before these sorts and concatenations, and the
    `with` block joins the helper, if it started, before the build returns
    or raises, so no draw, sort or gauge call of a build runs after it,
    the helper's gauge calls on levels of 2 * `_DRAW_BLOCK` cells or more
    included.
    """
    with ThreadPoolExecutor(1, thread_name_prefix="gaugequad-build") as pool:
        acc_t, acc_u = _levels(domain, g, rng, pool)
        tags = np.concatenate(acc_t)
        del acc_t
        tags_sorted = pool.submit(tags.sort) if tags.size >= _DRAW_BLOCK else tags.sort()
        points = np.empty(tags.size + 1)
        np.concatenate(acc_u, out=points[:-1])
        del acc_u
        points[:-1].sort()
        points[-1] = domain.b
        if tags_sorted is not None:
            tags_sorted.result()
    return tags, points


def _trial_orders(rng: np.random.Generator, n: int) -> np.ndarray:
    """rng.integers(0, 6, n) shifted left 3, as uint8: the values and the
    generator state of that one call.  The draw is made as uint32, which
    gives int64's values and consumes the same generator output, in half
    the bytes."""
    out = np.empty(n, dtype=np.uint8)
    np.left_shift(rng.integers(0, 6, n, dtype=np.uint32), 3, out=out, casting="unsafe")
    return out


def _levels(
    domain: Interval, g: Gauge, rng: np.random.Generator | None, pool: ThreadPoolExecutor
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """`_build_fine`'s level loop: each level's accepted tags and left ends."""

    def queue(M: np.ndarray):
        """The futures of a seeded level's split fractions, drawn into M, and
        trial orders, queued on `pool` in that order, if the level has at
        least `_DRAW_BLOCK` cells; else None, and the level draws inline."""
        if rng is None or M.size < _DRAW_BLOCK:
            return None
        return pool.submit(rng.random, out=M), pool.submit(_trial_orders, rng, M.size)

    def cells(lo: int, hi: int):
        """The per-cell pass of the current level over frontier cells
        [lo, hi): (lo, dM, ti, first, pi), with the gauge values dM at their
        split points, the accepted and pending positions ti and pi counted
        from lo, and the first covering candidate of each accepted cell.
        It reads the level's arrays, and allocates only these and its
        temporaries, so it may run on the helper."""
        u, v, mp, s = B[lo:hi], B[oV + lo:oV + hi], B[oM + lo:oM + hi], span[lo:hi]
        code = (s < dU[lo:hi]).view(np.uint8)
        code |= (s < dV[lo:hi]).view(np.uint8) << 2
        if rng is None:
            np.add(u, v, out=mp)
            mp *= 0.5
        else:
            if queued is not None:
                queued[0].result()
            mp *= 0.5
            mp += 0.25
            mp *= s
            mp += u
        dM = g.eval_many(mp)
        np.subtract(mp, u, out=s)
        mid = s < dM
        np.subtract(v, mp, out=s)
        mid &= s < dM
        code |= mid.view(np.uint8) << 1
        del mid
        if rng is not None:
            code |= (orders if queued is None else queued[1].result())[lo:hi]
        first = _FIRST.take(code)
        del code
        taken = first < 3
        (ti,) = taken.nonzero()
        (pi,) = (~taken).nonzero()
        del taken
        return lo, dM, ti, first.take(ti), pi

    B = np.empty(3)
    B[0], B[1] = domain.a, domain.b
    n, oV, oM = 1, 1, 2
    queued = queue(B[2:])
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
        if rng is not None and queued is None:
            rng.random(out=M)
            orders = _trial_orders(rng, n)
        if n < 2 * _DRAW_BLOCK:
            parts = [cells(0, n)]
        else:
            second = pool.submit(contextvars.copy_context().run, cells, n // 2, n)
            # the first half's error, first in frontier order, wins
            parts = [cells(0, n // 2), second.result()]
            del second  # it holds the second half's arrays too
        del span
        m = 0
        for lo, dM, ti, first, pi in parts:
            acc_u.append(U[lo:].take(ti))
            ti += np.array((lo, oM + lo, oV + lo)).take(first)
            acc_t.append(B.take(ti))
            m += pi.size
        # ti and first go here, before the next level's blocks are allocated
        parts = [(lo, dM, pi) for lo, dM, _, _, pi in parts]
        del dM, ti, first, pi
        if m == 0:
            break
        if depth == _MAX_DEPTH:
            raise DepthExceeded(
                f"{m} cells still unacceptable at depth "
                f"{_MAX_DEPTH}; gauge is finer than float spacing allows"
            )
        # Each part's pending cells go to [a, b) of the next level, the
        # first half's first.  pi is in range, so mode="clip" clips nothing;
        # it spares the buffered copy that take(out=...) makes under the
        # default "raise".
        D = np.empty((3, m))
        a = 0
        for k, (lo, dM, pi) in enumerate(parts):
            b = a + pi.size
            dU[lo:].take(pi, out=D[0, a:b], mode="clip")
            dM.take(pi, out=D[1, a:b], mode="clip")
            dV[lo:].take(pi, out=D[2, a:b], mode="clip")
            parts[k] = lo, pi, a, b
            a = b
        del dM
        dU, dV = D[:2].ravel(), D[1:].ravel()
        C = np.empty((5, m))
        queued = queue(C[3:].ravel())
        for lo, pi, a, b in parts:
            U[lo:].take(pi, out=C[0, a:b], mode="clip")
            M[lo:].take(pi, out=C[1, a:b], mode="clip")
            V[lo:].take(pi, out=C[2, a:b], mode="clip")
        del parts, pi
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

    The gauge may also run on the build helper, so it must not share
    unsynchronised mutable state (see Threads in the package docstring).
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

    The gauge may also run on the build helper, so it must not share
    unsynchronised mutable state (see Threads in the package docstring).
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
