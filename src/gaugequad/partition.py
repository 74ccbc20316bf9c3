"""Intervals, tagged partitions, gauges, and fineness machinery.

A gauge is a strictly positive function delta(x) on an interval.  A tagged
partition {(x_i, [u_{i-1}, u_i])} is delta-fine when every cell satisfies
x_i - u_{i-1} < delta(x_i) and u_i - x_i < delta(x_i).  Fine partitions
always exist on a compact interval (Cousin's lemma); `cousin_partition`
constructs one by deterministic bisection and `random_delta_fine_partition`
by seeded randomized bisection.
"""
from __future__ import annotations

import itertools
import math
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

#: Default bisection depth limit.  2**-64 is below the spacing of doubles on
#: [0, 1], so hitting it means the gauge demands unrepresentable cells.
DEFAULT_MAX_DEPTH = 64

#: Slack allowed between the accumulated cell lengths and the domain length.
_LENGTH_SUM_ULPS = 8

#: _FIRST[perm, bits] is the first candidate (0 left, 1 mid, 2 right) in
#: trial order `perm` whose bit is set in the 3-bit fineness code `bits`, or
#: 3 when none is.  perm indexes itertools.permutations(range(3)); 0 is the
#: fixed order (left, mid, right).
_FIRST = np.array(
    [
        [next((c for c in order if bits >> c & 1), 3) for bits in range(8)]
        for order in itertools.permutations(range(3))
    ],
    dtype=np.intp,
)


@dataclass(frozen=True)
class Interval:
    """A nondegenerate compact interval [a, b]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


def _eval_points(fn: Callable, xs: np.ndarray, dtype=float) -> np.ndarray:
    """fn on every point of xs: one array call, else one call per point.

    A result of another shape is broadcast and copied (a dot product over
    a stride-0 view rounds differently); a callable that rejects arrays
    with TypeError or ValueError is called once per point.
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
    exploited for speed but not required.
    """

    delta: Callable

    def __call__(self, x: float) -> float:
        d = float(self.delta(x))
        if not (math.isfinite(d) and d > 0.0):
            raise InvalidGauge(f"gauge returned {d} at x={x}")
        return d

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the gauge on an array of points, validating positivity."""
        out = _eval_points(self.delta, xs)
        if not np.all(np.isfinite(out) & (out > 0.0)):
            bad = xs[~(np.isfinite(out) & (out > 0.0))]
            raise InvalidGauge(f"gauge non-positive or non-finite at x={bad[0]}")
        return out


class TaggedPartition:
    """An ordered, exactly-abutting tagged partition of a compact interval.

    Cells are held as flat arrays (tags, lefts, rights) so million-cell
    partitions stay cheap.  A tag may sit on either endpoint of its cell.
    Instances are immutable after construction.
    """

    __slots__ = ("domain", "tags", "lefts", "rights")

    def __init__(self, domain: Interval, tags, lefts, rights) -> None:
        tags = np.ascontiguousarray(tags, dtype=float)
        lefts = np.ascontiguousarray(lefts, dtype=float)
        rights = np.ascontiguousarray(rights, dtype=float)
        if not (tags.ndim == 1 and tags.shape == lefts.shape == rights.shape):
            raise ValueError("tags, lefts, rights must be equal-length 1-d arrays")
        if tags.size == 0:
            raise ValueError("partition must contain at least one cell")
        if not np.all(np.isfinite(tags)):
            raise ValueError("tags must be finite")
        if not np.all(lefts < rights):
            raise ValueError("every cell must have positive length")
        if not np.all((lefts <= tags) & (tags <= rights)):
            raise ValueError("every tag must lie inside its cell")
        if lefts[0] != domain.a or rights[-1] != domain.b:
            raise ValueError("partition must span the domain exactly")
        if not np.all(rights[:-1] == lefts[1:]):
            raise ValueError("consecutive cells must abut exactly")
        total = math.fsum(rights - lefts)
        slack = _LENGTH_SUM_ULPS * math.ulp(max(abs(total), abs(domain.length)))
        if abs(total - domain.length) > slack:
            raise ValueError(
                f"cell lengths sum to {total}, domain length is {domain.length}"
            )
        for arr in (tags, lefts, rights):
            arr.setflags(write=False)
        self.domain = domain
        self.tags = tags
        self.lefts = lefts
        self.rights = rights

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
    domain: Interval,
    g: Gauge,
    max_depth: int,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared bisection engine behind both partition constructors.

    Keeps a frontier of pending cells [u, v] per depth level, with the gauge
    values at u and v carried down from the level that created them, so the
    gauge is called once on [a], once on [b] and once per level on the new
    split points.  A cell is accepted as soon as one of its candidate tags
    {u, mid, v} covers it (both one-sided gaps below delta(candidate));
    otherwise it is bisected.  The tags at u and v leave gaps (0, v - u) and
    (v - u, 0), so each cell's three tests form a 3-bit code and the tag is
    the first covering candidate in trial order, read from `_FIRST`.  With
    rng=None the split point is the exact midpoint and candidates are tried
    in the fixed order (left, mid, right); with an rng the split point is
    uniform in the middle half and the trial order is a per-cell random
    permutation.
    """
    U = np.array([domain.a])
    V = np.array([domain.b])
    dU = g.eval_many(U)
    dV = g.eval_many(V)
    acc_t: list[np.ndarray] = []
    acc_u: list[np.ndarray] = []
    acc_v: list[np.ndarray] = []

    for depth in range(max_depth + 1):
        span = V - U
        if rng is None:
            M = 0.5 * (U + V)
            perm = 0
        else:
            M = U + span * rng.uniform(0.25, 0.75, U.size)
            perm = rng.integers(0, 6, U.size)
        dM = g.eval_many(M)
        fine_mid = (M - U < dM) & (V - M < dM)
        first = _FIRST[perm, (span < dU) | fine_mid << 1 | (span < dV) << 2]
        taken = first < 3
        acc_t.append(np.choose(first[taken], (U[taken], M[taken], V[taken])))
        acc_u.append(U[taken])
        acc_v.append(V[taken])
        pending = ~taken
        if not pending.any():
            break
        if depth == max_depth:
            raise DepthExceeded(
                f"{int(pending.sum())} cells still unacceptable at depth "
                f"{max_depth}; gauge is finer than float spacing allows"
            )
        Up, Vp, Mp = U[pending], V[pending], M[pending]
        splittable = (Mp > Up) & (Mp < Vp)
        if not splittable.all():
            raise DepthExceeded(
                "bisection reached adjacent floats without acceptance; "
                "gauge is unrepresentable there"
            )
        dMp = dM[pending]
        U, dU = np.concatenate([Up, Mp]), np.concatenate([dU[pending], dMp])
        V, dV = np.concatenate([Mp, Vp]), np.concatenate([dMp, dV[pending]])

    tags = np.concatenate(acc_t)
    lefts = np.concatenate(acc_u)
    rights = np.concatenate(acc_v)
    idx = np.argsort(lefts, kind="stable")
    return tags[idx], lefts[idx], rights[idx]


def cousin_partition(
    domain: Interval, g: Gauge, max_depth: int = DEFAULT_MAX_DEPTH
) -> TaggedPartition:
    """Deterministic delta-fine partition by recursive bisection.

    Accepts a subinterval as soon as one of the candidate tags
    {left, midpoint, right} (tried in that order) satisfies the two
    one-sided fineness inequalities; otherwise bisects at the midpoint.
    Identical inputs yield identical output.

    Raises DepthExceeded when `max_depth` is reached with cells still
    unacceptable.
    """
    return _fine_partition(domain, g, max_depth, None)


def random_delta_fine_partition(
    domain: Interval,
    g: Gauge,
    seed: int | Sequence[int],
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TaggedPartition:
    """Seeded randomized delta-fine partition.

    Randomness enters through bisection points (uniform in the middle half
    of each cell) and through the per-cell candidate-tag order.  The result
    is deterministic for a fixed seed, which may be an int or a sequence of
    ints such as (seed, level, trial).
    """
    return _fine_partition(domain, g, max_depth, np.random.default_rng(seed))


def _fine_partition(
    domain: Interval, g: Gauge, max_depth: int, rng: np.random.Generator | None
) -> TaggedPartition:
    """Body of both constructors; rng=None selects the deterministic rule."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    tags, lefts, rights = _build_fine(domain, g, max_depth, rng)
    return TaggedPartition(domain, tags, lefts, rights)
