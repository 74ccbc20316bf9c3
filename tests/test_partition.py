import math

import numpy as np
import pytest

from gaugequad import (
    DepthExceeded,
    Gauge,
    Interval,
    InvalidGauge,
    TaggedPartition,
    cousin_partition,
    is_delta_fine,
    random_delta_fine_partition,
)

from conftest import const_gauge


# ---------------------------------------------------------------- types

def test_interval_requires_order_and_finiteness():
    Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_partition_validates_cover_and_abutment():
    dom = Interval(0.0, 1.0)
    TaggedPartition(dom, [0.25, 0.75], [0.0, 0.5], [0.5, 1.0])
    # gap between cells
    with pytest.raises(ValueError):
        TaggedPartition(dom, [0.2, 0.8], [0.0, 0.6], [0.5, 1.0])
    # does not span the domain
    with pytest.raises(ValueError):
        TaggedPartition(dom, [0.2, 0.6], [0.0, 0.5], [0.5, 0.9])
    # zero-length cell
    with pytest.raises(ValueError):
        TaggedPartition(dom, [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    # tag outside its cell
    with pytest.raises(ValueError):
        TaggedPartition(dom, [0.75, 0.75], [0.0, 0.5], [0.5, 1.0])


def test_partition_arrays_are_readonly():
    p = TaggedPartition(Interval(0.0, 1.0), [0.25, 0.75], [0.0, 0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        p.tags[0] = 0.1


# ---------------------------------------------------------- is_delta_fine

def test_fineness_half_partition_against_constant_gauge():
    p = TaggedPartition(Interval(0.0, 1.0), [0.25, 0.75], [0.0, 0.5], [0.5, 1.0])
    assert is_delta_fine(p, const_gauge(0.6))
    assert not is_delta_fine(p, const_gauge(0.25))  # 0.25 < 0.25 fails strictly


def test_fineness_is_strict_one_sided():
    # single cell [0.05, 0.2] tagged at 0.1 against delta(x) = x/2:
    # 0.2 - 0.1 = 0.1 >= delta(0.1) = 0.05
    p = TaggedPartition(Interval(0.05, 0.2), [0.1], [0.05], [0.2])
    assert not is_delta_fine(p, Gauge(lambda x: x / 2))


def test_fineness_reports_invalid_gauge():
    p = TaggedPartition(Interval(0.0, 1.0), [0.25, 0.75], [0.0, 0.5], [0.5, 1.0])
    with pytest.raises(InvalidGauge):
        is_delta_fine(p, Gauge(lambda x: x - 0.5))  # zero/negative at tags
    with pytest.raises(InvalidGauge):
        is_delta_fine(p, Gauge(lambda x: math.nan))


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
    assert np.all(p.lengths <= 0.5)
    assert is_delta_fine(p, g)


def test_cousin_is_deterministic():
    g = Gauge(lambda x: 0.01 + x / 10.0)
    p1 = cousin_partition(Interval(0.0, 1.0), g)
    p2 = cousin_partition(Interval(0.0, 1.0), g)
    assert np.array_equal(p1.tags, p2.tags)
    assert np.array_equal(p1.lefts, p2.lefts)
    assert np.array_equal(p1.rights, p2.rights)


def test_cousin_depth_exceeded_for_unrepresentable_gauge():
    with pytest.raises(DepthExceeded):
        cousin_partition(Interval(0.0, 1.0), const_gauge(1e-30), max_depth=16)


def test_cousin_rejects_bad_max_depth():
    with pytest.raises(ValueError):
        cousin_partition(Interval(0.0, 1.0), const_gauge(0.5), max_depth=0)


def test_cousin_arbitrary_domain():
    g = Gauge(lambda x: 0.05 + 0.1 * np.abs(np.asarray(x, dtype=float)))
    dom = Interval(-2.0, 3.5)
    p = cousin_partition(dom, g)
    assert is_delta_fine(p, g)
    assert p.lefts[0] == dom.a and p.rights[-1] == dom.b


# ------------------------------------------- random_delta_fine_partition

def test_random_partition_is_fine_and_seed_deterministic():
    g = Gauge(lambda x: 0.01 + x / 10.0)
    p1 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=42)
    p2 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=42)
    assert is_delta_fine(p1, g)
    assert np.array_equal(p1.tags, p2.tags)
    assert np.array_equal(p1.lefts, p2.lefts)
    p3 = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=43)
    assert not (
        len(p3) == len(p1)
        and np.array_equal(p3.tags, p1.tags)
        and np.array_equal(p3.lefts, p1.lefts)
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
    total = math.fsum(p.lengths)
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
        total = math.fsum(p.lengths)
        assert abs(total - 1.0) <= 8 * math.ulp(1.0)
