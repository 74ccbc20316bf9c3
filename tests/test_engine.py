"""The bisection engine against its three-pass predecessor, and its branches.

`reference_build_fine` is the earlier engine, verbatim apart from its name:
it evaluated all three candidate tags of every frontier cell at every level
and put the cells in order with a stable argsort of their left ends.  The
one-pass engine, which returns (tags, points) and sorts tags and left ends
by value, must build partitions byte-identical to its (tags, lefts, rights)
for both rules, so seeded results and golden CLI output stay unchanged.
"""
import itertools
import math
import sys
import threading
import tracemalloc

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
    smooth_gauge_family,
)
from gaugequad import oscillator as osc
from gaugequad import partition
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
    # the cousin split point 0.5 * -5e-324 rounds to -0.0
    "subnormal-split": (Interval(-1e-323, 5e-324), const_gauge(1e-323)),
}

SEEDS = [pytest.param(None, id="cousin"), 0, 1, pytest.param((7, 2, 3), id="seq")]


def build(domain, g, seed):
    """The public constructor for seed (None selects cousin_partition)."""
    if seed is None:
        return cousin_partition(domain, g)
    return random_delta_fine_partition(domain, g, seed)


def rng(seed):
    """A fresh generator for seed; None selects the deterministic rule."""
    return None if seed is None else np.random.default_rng(seed)


def assert_matches_reference(domain, g, seed):
    """Byte-equal to the reference, so also -0.0 kept; tags never decrease."""
    tags, points = _build_fine(domain, g, rng(seed))
    old = reference_build_fine(domain, g, partition._MAX_DEPTH, rng(seed))
    for got, want in zip((tags, points[:-1], points[1:]), old):
        assert got.tobytes() == want.tobytes()
    assert math.copysign(1.0, points[0]) == math.copysign(1.0, domain.a)
    assert np.all(tags[:-1] <= tags[1:])
    return tags, points


# ------------------------------------------------ against the reference

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_matches_reference_bytewise(case, seed):
    assert_matches_reference(*ENGINE_CASES[case], seed)


@st.composite
def piecewise_constant_cases(draw):
    """A domain and a gauge constant on 1 to 5 pieces of it."""
    domain = draw(
        st.one_of(
            st.sampled_from([Interval(-0.0, 1.0), Interval(-1.0, -0.0)]),
            st.builds(
                lambda a, length: Interval(a, a + length),
                st.floats(-10.0, 10.0),
                st.floats(1e-3, 10.0),
            ),
        )
    )
    k = draw(st.integers(1, 5))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1))
    breaks = np.sort(domain.a + domain.length * np.array(fracs, dtype=float))
    powers = draw(st.lists(st.floats(1.0, 12.0), min_size=k, max_size=k))
    values = domain.length * np.exp2(-np.array(powers))

    def delta(x):
        return values[np.searchsorted(breaks, x, side="right")]

    return domain, Gauge(delta)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=piecewise_constant_cases(), seed=st.integers(0, 2**32 - 1) | st.none())
def test_engine_matches_reference_on_piecewise_constant_gauges(case, seed):
    assert_matches_reference(*case, seed)


@pytest.mark.parametrize(
    "domain, at",
    [(UNIT, 0.5), (Interval(-1.0, 1.0), 0.0)],
    ids=["at-0.5", "at-zero"],
)
def test_adjacent_equal_tags_sort_like_the_reference(domain, at):
    # delta is wide only at `at`, a division point from level 1 on: the
    # cousin rule tags [at - 1/4, at] at its right end and [at, at + 1/4]
    # at its left end, so two adjacent cells share the tag `at`
    g = Gauge(lambda x: np.where(np.asarray(x) == at, 0.3, 0.1))
    tags, points = assert_matches_reference(domain, g, None)
    (i,) = np.flatnonzero(points[1:-1] == at)
    assert tags[i] == tags[i + 1] == at


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
        assert p.domain == domain
        assert np.all(p.lefts < p.rights)
        assert np.all((p.lefts <= p.tags) & (p.tags <= p.rights))
        for arr in ("tags", "points"):
            assert getattr(p, arr).tobytes() == getattr(q, arr).tobytes()


@pytest.mark.threads
def test_builds_on_four_threads_under_a_short_switch_interval_match_the_reference():
    # four seeded builds at once, each with its own draw helper: eight
    # threads switching every microsecond must not reorder a generator's
    # draws or let a level read a split fraction before it is drawn
    cases = [
        (g, seed)
        for g in (osc.loop_gauge_family().at(3e-3), const_gauge(3e-6))
        for seed in (0, (7, 2, 3))
    ]
    want = [reference_build_fine(UNIT, g, partition._MAX_DEPTH, rng(s)) for g, s in cases]
    got = [[] for _ in cases]

    def builds(i):
        g, seed = cases[i]
        for _ in range(3):
            got[i].append(_build_fine(UNIT, g, rng(seed)))

    threads = [threading.Thread(target=builds, args=(i,), daemon=True) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for old, runs in zip(want, got):
        assert len(runs) == 3
        for tags, points in runs:
            for new, ref in zip((tags, points[:-1], points[1:]), old):
                assert new.tobytes() == ref.tobytes()


# ------------------------------------------------- the generator's draws

# A seeded build draws each level's split fractions with rng.random(out=M)
# and forms M = (r * 0.5 + 0.25) * span + U in place, and draws its trial
# orders in 2**16-cell blocks; the seeded partitions above equal the
# reference's only while these match the draws the reference makes.


@pytest.mark.threads
@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, 65535, 65536, 65537, 3 * 65536 + 5])
@pytest.mark.parametrize("seed", [0, 1, (7, 2, 3)])
def test_in_place_split_fractions_equal_uniform_draws_bytewise(seed, n):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    cells = np.random.default_rng(n)
    U = cells.uniform(-1.0, 1.0, n)
    span = cells.uniform(1e-9, 1.0, n)
    for _ in range(3):
        M = np.empty(n)
        ours.random(out=M)
        M *= 0.5
        M += 0.25
        M *= span
        M += U
        assert M.tobytes() == (U + span * theirs.uniform(0.25, 0.75, n)).tobytes()
        orders = partition._trial_orders(ours, n)
        assert orders.dtype == np.uint8
        assert np.array_equal(orders, theirs.integers(0, 6, n) << 3)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random() == theirs.random()


def test_trial_order_draws_are_unchanged():
    # frozen int64 draws, alone and after a level's split fractions: a
    # numpy that changes them changes every seeded partition
    got = np.random.default_rng(0).integers(0, 6, 12)
    assert got.dtype == np.int64
    assert got.tolist() == [5, 3, 3, 1, 1, 0, 0, 0, 1, 4, 3, 5]
    after = np.random.default_rng((7, 2, 3))
    after.random(3)
    assert after.integers(0, 6, 8).tolist() == [2, 1, 5, 1, 5, 0, 5, 1]


# ------------------------------------------------------------ branches

@pytest.mark.threads
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_invalid_gauge_raises_during_build(seed, monkeypatch):
    with pytest.raises(InvalidGauge):
        build(UNIT, Gauge(lambda x: x - 0.5), seed)

    # valid on a, b and levels 0 to 3 and invalid on level 4's split points,
    # while the helper is held in level 4's trial-order draw until it raises
    calls, draws, held, raised = [], [], [], threading.Event()
    trial_orders = partition._trial_orders

    def held_orders(rng, n):
        draws.append(threading.get_ident())
        if len(draws) == 5:
            held.append(raised.wait(timeout=30))
        return trial_orders(rng, n)

    def delta(x):
        calls.append(threading.get_ident())
        if len(calls) == 7:
            raised.set()
            return -np.ones_like(x)
        return np.full_like(x, 1e-3)

    monkeypatch.setattr(partition, "_trial_orders", held_orders)
    before = threading.active_count()
    with pytest.raises(InvalidGauge):
        build(UNIT, Gauge(delta), seed)
    assert threading.active_count() == before
    assert set(calls) == {threading.get_ident()} and len(calls) == 7
    if seed is not None:
        assert held == [True]
        assert threading.get_ident() not in draws


def depth_messages(domain, g, seed):
    """The DepthExceeded messages of the engine and of the reference, which
    is given the engine's depth limit."""
    with pytest.raises(DepthExceeded) as got:
        _build_fine(domain, g, rng(seed))
    with pytest.raises(DepthExceeded) as want:
        reference_build_fine(domain, g, partition._MAX_DEPTH, rng(seed))
    return str(got.value), str(want.value)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_depth_exceeded_at_adjacent_floats(seed):
    # two ulps wide: the first split is exact, the next has no float inside
    dom = Interval(1.0, 1.0 + 2 * math.ulp(1.0))
    with pytest.raises(DepthExceeded, match="adjacent floats"):
        build(dom, const_gauge(1e-300), seed)
    got, want = depth_messages(dom, const_gauge(1e-300), seed)
    assert got == want


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_depth_exceeded_at_max_depth(seed, monkeypatch):
    monkeypatch.setattr(partition, "_MAX_DEPTH", 8)
    got, want = depth_messages(UNIT, const_gauge(1e-5), seed)
    assert got == want
    assert got.endswith(
        " cells still unacceptable at depth 8; gauge is finer than float spacing allows"
    )


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
        deepest = round(-math.log2(np.diff(p.points).min()))
        assert len(calls) == 2 + deepest + 1


def traced_peak(build):
    """build()'s result and the peak traced bytes above those live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "gauge, seed, bound",
    # 8,192, 9,536, 88,970 and 960,574 cells, measured at 73.9, 32.2-34.2
    # (as the helper's draws fall), 24.2 and 27.5 B a cell; only the last
    # has levels past one 2**16-cell draw block
    [
        (smooth_gauge_family().at(1e-6), None, 80),
        (smooth_gauge_family().at(1e-6), [0, 0, 1], 36),
        (osc.loop_gauge_family().at(3e-3), [0, 0, 1], 28),
        (smooth_gauge_family().at(1e-9), [0, 0, 1], 30),
    ],
    ids=["cousin-smooth", "seeded-smooth", "seeded-loop", "seeded-smooth-bench"],
)
def test_build_peak_bytes_per_cell(gauge, seed, bound):
    # holds only if the engine frees each frontier temporary at its last use
    p, peak = traced_peak(lambda: build(UNIT, gauge, seed))
    assert peak / len(p) <= bound
