"""The bisection engine against its three-pass predecessor, and its branches.

`reference_build_fine` is the earlier engine, verbatim apart from its name:
it evaluated all three candidate tags of every frontier cell at every level.
The one-pass engine must build byte-identical partitions for both rules, so
seeded results and golden CLI output stay unchanged.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequad import (
    DepthExceeded,
    Gauge,
    Interval,
    InvalidGauge,
    cousin_partition,
    is_delta_fine,
    random_delta_fine_partition,
)
from gaugequad import oscillator as osc
from gaugequad.partition import _build_fine

from conftest import const_gauge

UNIT = Interval(0.0, 1.0)

_PERMUTATIONS = np.array(list(itertools.permutations(range(3))), dtype=np.intp)


def reference_build_fine(
    domain: Interval,
    g: Gauge,
    max_depth: int,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared bisection engine behind both partition constructors.

    Keeps a frontier of pending cells per depth level.  A cell [u, v] is
    accepted as soon as one of its candidate tags {u, mid, v} covers it
    (both one-sided gaps below delta(candidate)); otherwise it is bisected.
    With rng=None the bisection point is the exact midpoint and candidates
    are tried in the fixed order (left, mid, right); with an rng the split
    point is uniform in the middle half and the candidate order is a
    per-cell random permutation.
    """
    U = np.array([domain.a])
    V = np.array([domain.b])
    acc_t: list[np.ndarray] = []
    acc_u: list[np.ndarray] = []
    acc_v: list[np.ndarray] = []

    for depth in range(max_depth + 1):
        if U.size == 0:
            break
        span = V - U
        if rng is None:
            M = 0.5 * (U + V)
            order = np.broadcast_to(_PERMUTATIONS[0], (U.size, 3))
        else:
            M = U + span * rng.uniform(0.25, 0.75, U.size)
            order = _PERMUTATIONS[rng.integers(0, 6, U.size)]
        candidates = np.stack([U, M, V], axis=1)
        rows = np.arange(U.size)

        tag = np.empty(U.size)
        taken = np.zeros(U.size, dtype=bool)
        for slot in range(3):
            c = candidates[rows, order[:, slot]]
            d = g.eval_many(c)
            ok = ~taken & (c - U < d) & (V - c < d)
            tag[ok] = c[ok]
            taken |= ok

        if taken.any():
            acc_t.append(tag[taken])
            acc_u.append(U[taken])
            acc_v.append(V[taken])
        pending = ~taken
        if not pending.any():
            U = V = np.empty(0)
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
        U = np.concatenate([Up, Mp])
        V = np.concatenate([Mp, Vp])

    tags = np.concatenate(acc_t)
    lefts = np.concatenate(acc_u)
    rights = np.concatenate(acc_v)
    idx = np.argsort(lefts, kind="stable")
    return tags[idx], lefts[idx], rights[idx]


def scalar_only_gauge():
    def delta(x):
        if np.ndim(x):
            raise TypeError("scalar only")
        return 0.02 + x / 8.0

    return Gauge(delta)


ENGINE_CASES = {
    "loop-1e-2": (UNIT, osc.loop_gauge_family().at(1e-2)),
    "constant-0.0041": (UNIT, const_gauge(0.0041)),
    "constant-1.0": (UNIT, const_gauge(1.0)),
    "constant-1.5": (UNIT, const_gauge(1.5)),
    "truncated-64": (UNIT, osc.truncated_gauge_family(64).at(1e-3)),
    "scalar-only": (UNIT, scalar_only_gauge()),
    "domain-[-2,3.5]": (
        Interval(-2.0, 3.5),
        Gauge(lambda x: 0.05 + 0.1 * np.abs(np.asarray(x, dtype=float))),
    ),
}

SEEDS = [pytest.param(None, id="cousin"), 0, 1, pytest.param((7, 2, 3), id="seq")]


def build(domain, g, seed):
    """The public constructor for seed (None selects cousin_partition)."""
    if seed is None:
        return cousin_partition(domain, g)
    return random_delta_fine_partition(domain, g, seed)


# ------------------------------------------------ against the reference

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_matches_reference_bytewise(case, seed):
    domain, g = ENGINE_CASES[case]

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    new = _build_fine(domain, g, 64, rng())
    old = reference_build_fine(domain, g, 64, rng())
    for got, want in zip(new, old):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    a=st.floats(-10.0, 10.0),
    length=st.floats(1e-3, 10.0),
    floor=st.floats(1e-3, 1.0),
    slope=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_partitions_are_fine_abutting_ordered_and_seed_deterministic(
    a, length, floor, slope, seed
):
    domain = Interval(a, a + length)
    g = Gauge(lambda x: floor + slope * np.abs(np.asarray(x, dtype=float) - a))
    for s in (None, seed):
        p, q = build(domain, g, s), build(domain, g, s)
        assert is_delta_fine(p, g)
        assert p.lefts[0] == domain.a and p.rights[-1] == domain.b
        assert np.array_equal(p.rights[:-1], p.lefts[1:])
        assert np.all(p.lefts < p.rights)
        assert np.all((p.lefts <= p.tags) & (p.tags <= p.rights))
        for arr in ("tags", "lefts", "rights"):
            assert getattr(p, arr).tobytes() == getattr(q, arr).tobytes()


# ------------------------------------------------------------ branches

@pytest.mark.parametrize("seed", SEEDS[:2])
def test_invalid_gauge_raises_during_build(seed):
    with pytest.raises(InvalidGauge):
        build(UNIT, Gauge(lambda x: x - 0.5), seed)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_depth_exceeded_at_adjacent_floats(seed):
    # two ulps wide: the first split is exact, the next has no float inside
    dom = Interval(1.0, 1.0 + 2 * math.ulp(1.0))
    with pytest.raises(DepthExceeded, match="adjacent floats"):
        build(dom, const_gauge(1e-300), seed)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_gauge_sees_each_point_once(seed):
    base = osc.loop_gauge_family().at(1e-2)
    calls = []

    def delta(x):
        calls.append(np.atleast_1d(x).tolist())
        return base.delta(x)

    p = build(UNIT, Gauge(delta), seed)
    points = [x for call in calls for x in call]
    # a and b, then one split point per frontier cell: the bisection tree
    # has 2 * len(p) - 1 nodes
    assert len(points) == len(set(points)) == 2 * len(p) + 1
    if seed is None:
        # one call per level; cousin cells on [0, 1] have dyadic lengths
        deepest = round(-math.log2(p.lengths.min()))
        assert len(calls) == 2 + deepest + 1
