import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugequad import (
    DepthExceeded,
    Gauge,
    IndexSelector,
    IntegrandFamily,
    Interval,
    InvalidGauge,
    InvalidIndex,
    LengthMismatch,
    NonFiniteValue,
    TaggedPartition,
    cousin_partition,
    is_delta_fine,
    random_delta_fine_partition,
    riemann_sum,
    variable_index_sum,
)
from gaugequad import criteria, partition

from conftest import const_gauge, scalar_only


# ---------------------------------------------------------------- types

def test_interval_requires_order_and_finiteness():
    Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    for a, b in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, math.inf)):
        with pytest.raises(ValueError):
            Interval(a, b)
    # finite end points whose length b - a overflows to inf
    with pytest.raises(ValueError, match="length must be finite"):
        Interval(-1e308, 1e308)


def test_interval_rejects_end_points_past_the_float_range_or_not_real():
    # an int past the float range reads as an infinity, not an OverflowError
    for a, b in ((0, 10**400), (-(10**400), 0)):
        with pytest.raises(ValueError, match=r"length must be finite, got \[.*inf"):
            Interval(a, b)
    # a numeric string is rejected, not parsed, and not a TypeError from `-`
    for a, b in ((0, "1"), ("0", 1), (0, None), (0, 1j)):
        with pytest.raises(ValueError, match="endpoints must be real numbers"):
            Interval(a, b)


def test_interval_stores_its_ends_as_floats():
    # a Decimal or np.float32 end is read once, not kept to fail in `-` later
    from decimal import Decimal

    for a, b in ((Decimal(0), 1.0), (np.float32(0.1), Decimal("0.7")), (0, 1)):
        iv = Interval(a, b)
        assert (type(iv.a), type(iv.b)) == (float, float)
        assert (iv.a, iv.b) == (float(a), float(b))


def test_partition_validates_cover_and_abutment():
    # cells abut and span [points[0], points[-1]] by construction
    p = TaggedPartition([0.25, 0.75], [0.0, 0.5, 1.0])
    assert p.domain == Interval(0.0, 1.0)
    assert p.points[:-1].tolist() == [0.0, 0.5] and p.points[1:].tolist() == [0.5, 1.0]
    bad = {
        "zero-length cell": ([0.5, 0.5], [0.0, 0.5, 0.5]),
        "non-increasing points": ([0.3, 0.55, 0.8], [0.0, 0.6, 0.5, 1.0]),
        "too few points": ([0.25, 0.75], [0.0, 0.5]),
        "too many points": ([0.25], [0.0, 0.5, 1.0]),
        "no cell": ([], [0.0]),
        "nan point": ([0.25, 0.75], [0.0, math.nan, 1.0]),
        "infinite end point": ([0.25], [0.0, math.inf]),
        "nan tag": ([math.nan, 0.75], [0.0, 0.5, 1.0]),
        "infinite tag": ([0.25, math.inf], [0.0, 0.5, 1.0]),
        "tag outside its cell": ([0.75, 0.75], [0.0, 0.5, 1.0]),
    }
    for case, (tags, points) in bad.items():
        with pytest.raises(ValueError):
            TaggedPartition(tags, points)
            pytest.fail(case)


def test_partition_arrays_are_readonly():
    p = TaggedPartition([0.25, 0.75], [0.0, 0.5, 1.0])
    for arr in (p.tags, p.points, p.points[:-1], p.points[1:]):
        with pytest.raises(ValueError):
            arr[0] = 0.1


# ---------------------------------------------------------- is_delta_fine

def test_fineness_half_partition_against_constant_gauge():
    p = TaggedPartition([0.25, 0.75], [0.0, 0.5, 1.0])
    assert is_delta_fine(p, const_gauge(0.6))
    assert not is_delta_fine(p, const_gauge(0.25))  # 0.25 < 0.25 fails strictly


def test_fineness_is_strict_one_sided():
    # single cell [0.05, 0.2] tagged at 0.1 against delta(x) = x/2:
    # 0.2 - 0.1 = 0.1 >= delta(0.1) = 0.05
    p = TaggedPartition([0.1], [0.05, 0.2])
    assert not is_delta_fine(p, Gauge(lambda x: x / 2))


def test_fineness_reports_invalid_gauge():
    p = TaggedPartition([0.25, 0.75], [0.0, 0.5, 1.0])
    with pytest.raises(InvalidGauge):
        is_delta_fine(p, Gauge(lambda x: x - 0.5))  # zero/negative at tags
    with pytest.raises(InvalidGauge):
        is_delta_fine(p, Gauge(lambda x: math.nan))


# ---------------------------------------------------- checked evaluation

FIVE = TaggedPartition([0.1, 0.3, 0.5, 0.7, 0.9], np.linspace(0.0, 1.0, 6))

#: Each site that evaluates a user callable fn on FIVE's tags, as run(fn),
#: with the typed error a bad value raises there.
SITES = {
    "gauge": (lambda fn: is_delta_fine(FIVE, Gauge(fn)), InvalidGauge),
    "integrand": (lambda fn: riemann_sum(fn, FIVE), NonFiniteValue),
    "family member": (
        lambda fn: variable_index_sum(
            IntegrandFamily(lambda j, x: fn(x), Interval(0.0, 1.0)), np.ones(5, dtype=int), FIVE
        ),
        NonFiniteValue,
    ),
    "selector threshold": (
        lambda fn: criteria._thresholds(IndexSelector(fn), FIVE.tags), InvalidIndex
    ),
}


@pytest.mark.parametrize(
    "site, bad, good",
    [("gauge", 0.0, 1.0), ("integrand", math.inf, 1.0), ("family member", math.nan, 1.0),
     ("selector threshold", 0, 1), ("selector threshold", math.nan, 1),
     ("selector threshold", math.inf, 1), ("selector threshold", 2.0**63, 1),
     ("scalar-only selector threshold", math.nan, 1)],
)
def test_bad_value_raises_the_sites_error_at_the_first_bad_point(site, bad, good):
    run, error = SITES[site.removeprefix("scalar-only ")]
    fn = lambda x: np.where(np.asarray(x) > 0.4, bad, good)  # noqa: E731
    if site.startswith("scalar-only"):  # Python scalars, as a plain float function returns
        fn = scalar_only(lambda x, _fn=fn: _fn(x).item())
    with pytest.raises(error, match=r" at x=0\.5$"):
        run(fn)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize(
    "result", [lambda x: np.ones(2), lambda x: np.asarray(x)[:, None]], ids=["length-2", "column"]
)
def test_wrong_shaped_result_raises_after_one_call(site, result):
    run, _ = SITES[site]
    calls = []

    def fn(x):
        calls.append(x)
        return result(x)

    with pytest.raises(LengthMismatch, match=r"does not broadcast to the points' shape \(5,\)"):
        run(fn)
    assert len(calls) == 1


@pytest.mark.parametrize("site", SITES)
def test_ragged_result_raises_length_mismatch_after_one_call(site):
    # numpy cannot make one array of it
    run, _ = SITES[site]
    calls = []

    def fn(x):
        calls.append(x)
        return [0.1, [0.2, 0.3]]

    with pytest.raises(LengthMismatch, match=r"ragged result does not broadcast to shape \(5,\)"):
        run(fn)
    assert len(calls) == 1


def test_ragged_gauge_fails_a_build_after_one_call():
    calls = []
    gauge = Gauge(lambda x: calls.append(x) or [0.1, [0.2, 0.3]])
    with pytest.raises(LengthMismatch, match="ragged result"):
        cousin_partition(Interval(0.0, 1.0), gauge)
    assert len(calls) == 1


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize(
    "result, first",
    [(lambda x: 0.5 + 1j, "0.1"), (lambda x: np.where(np.asarray(x) > 0.4, 1 + 1j, 1 + 0j), "0.5")],
    ids=["complex-scalar", "complex-array"],
)
def test_complex_result_raises_the_sites_error_after_one_call(site, result, first):
    run, error = SITES[site]
    calls = []

    def fn(x):
        calls.append(x)
        return result(x)

    with pytest.raises(error, match=rf" not real at x={first}$"):
        run(fn)
    assert len(calls) == 1


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize(
    "result, first",
    [
        (lambda x: "a", "0.1"),
        (lambda x: [object()] * 5, "0.1"),
        (lambda x: [1.0, 1, None, "1.0", object()], "0.5"),
        (lambda x: "3", "0.1"),
    ],
    ids=["string", "objects", "mixed", "numeric-string"],
)
def test_result_that_is_no_real_number_raises_the_sites_error_at_its_first_point(
    site, result, first
):
    run, error = SITES[site]
    with pytest.raises(error, match=rf"^{site} not real at x={first}$"):
        run(result)


@pytest.mark.parametrize("site", SITES)
def test_int_past_the_float_range_raises_the_sites_error_at_its_point(site):
    run, error = SITES[site]
    with pytest.raises(error, match=r" at x=0\.5$"):
        run(lambda x: [10**400 if v > 0.4 else 1 for v in x])


@pytest.mark.parametrize("site", SITES)
def test_result_that_broadcasts_is_accepted(site):
    run, _ = SITES[site]
    run(lambda x: 1)


def test_broadcast_result_is_a_writable_copy():
    out = partition._eval_points(lambda x: 0.5, FIVE.tags, np.isfinite, ValueError, "value", "bad")
    assert out.shape == (5,) and out.flags.writeable
    assert out.tolist() == [0.5] * 5


# -------------------------------------------------------- cousin_partition

def test_cousin_single_cell_for_unit_gauge():
    # len 1 < delta is false for the endpoint tags (strict <), so the
    # midpoint candidate covers [0, 1] in one cell
    p = cousin_partition(Interval(0.0, 1.0), const_gauge(1.0))
    assert len(p) == 1
    assert p.tags[0] == 0.5
    assert is_delta_fine(p, const_gauge(1.0))


def test_cousin_accepts_left_tag_when_strictly_fine():
    p = cousin_partition(Interval(0.0, 1.0), const_gauge(1.5))
    assert len(p) == 1
    assert p.tags[0] == 0.0  # left candidate is tried first


def test_cousin_constant_gauge_03():
    g = const_gauge(0.3)
    p = cousin_partition(Interval(0.0, 1.0), g)
    assert np.all(np.diff(p.points) <= 0.5)
    assert is_delta_fine(p, g)


def test_cousin_is_deterministic():
    g = Gauge(lambda x: 0.01 + x / 10.0)
    p1 = cousin_partition(Interval(0.0, 1.0), g)
    p2 = cousin_partition(Interval(0.0, 1.0), g)
    assert np.array_equal(p1.tags, p2.tags)
    assert np.array_equal(p1.points[:-1], p2.points[:-1])
    assert np.array_equal(p1.points[1:], p2.points[1:])


def test_cousin_depth_exceeded_for_unrepresentable_gauge(monkeypatch):
    monkeypatch.setattr(partition, "_MAX_DEPTH", 16)
    with pytest.raises(DepthExceeded, match="at depth 16;"):
        cousin_partition(Interval(0.0, 1.0), const_gauge(1e-30))


def test_cousin_arbitrary_domain():
    g = Gauge(lambda x: 0.05 + 0.1 * np.abs(np.asarray(x, dtype=float)))
    dom = Interval(-2.0, 3.5)
    p = cousin_partition(dom, g)
    assert is_delta_fine(p, g)
    assert p.points[:-1][0] == dom.a and p.points[1:][-1] == dom.b


# ------------------------------------------- random_delta_fine_partition

def test_random_partition_is_fine_and_seed_deterministic():
    g = Gauge(lambda x: 0.01 + x / 10.0)
    p1 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=42)
    p2 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=42)
    assert is_delta_fine(p1, g)
    assert np.array_equal(p1.tags, p2.tags)
    assert np.array_equal(p1.points[:-1], p2.points[:-1])
    p3 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=43)
    assert not (
        len(p3) == len(p1)
        and np.array_equal(p3.tags, p1.tags)
        and np.array_equal(p3.points[:-1], p1.points[:-1])
    )


def test_random_partition_unit_gauge_contract():
    g = const_gauge(1.0)
    for seed in range(5):
        p = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=seed)
        assert is_delta_fine(p, g)


@pytest.mark.parametrize("seed", range(25))
def test_random_partitions_sweep(seed):
    g = Gauge(lambda x: 0.01 + x / 10.0)
    p = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=seed)
    assert is_delta_fine(p, g)
    total = math.fsum(np.diff(p.points))
    assert abs(total - 1.0) <= 8 * math.ulp(1.0)


# ----------------------------------------------------------- invariants

def test_refinement_monotonicity():
    # fine for g1 and g1 <= g2 pointwise  =>  fine for g2
    g1 = Gauge(lambda x: 0.02 + x / 20.0)
    g2 = Gauge(lambda x: 0.05 + x / 10.0)
    for seed in range(5):
        p = random_delta_fine_partition(Interval(0.0, 1.0), g1, seed=seed)
        assert is_delta_fine(p, g1)
        assert is_delta_fine(p, g2)


def test_lengths_sum_within_eight_ulps():
    for c in (1.0, 0.3, 0.037, 0.0041):
        p = cousin_partition(Interval(0.0, 1.0), const_gauge(c))
        total = math.fsum(np.diff(p.points))
        assert abs(total - 1.0) <= 8 * math.ulp(1.0)


# Finite points over wide exponents and of mixed sign, bounded so that the
# domain length stays finite; runs of adjacent subnormals give subnormal gaps.
_WIDE = st.floats(-1e307, 1e307, allow_nan=False, allow_infinity=False)
_SUBNORMAL = st.integers(-2**20, 2**20).map(lambda k: k * 5e-324)


@st.composite
def points_and_tags(draw):
    xs = draw(st.lists(st.one_of(_WIDE, _SUBNORMAL), min_size=2, max_size=40))
    points = np.unique(np.array(xs, dtype=float))
    if points.size < 2:
        points = np.append(points, np.nextafter(points[-1], math.inf))
    frac = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=points.size - 1, max_size=points.size - 1
    )))
    lefts, rights = points[:-1], points[1:]
    tags = np.clip(lefts + frac * (rights - lefts), lefts, rights)
    return tags, points


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(points_and_tags())
def test_lengths_telescope_for_any_points(tp):
    # the partition stores no domain length to check against: the sum of
    # the rounded cell lengths must telescope to it within 8 ulps
    p = TaggedPartition(*tp)
    total = math.fsum(np.diff(p.points))
    length = p.domain.b - p.domain.a
    ulp = math.ulp(max(abs(total), abs(length)))
    assert abs(total - length) <= 8 * ulp
