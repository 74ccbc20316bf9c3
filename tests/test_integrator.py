import math
import sys
import threading
import time

import numpy as np
import pytest

from gaugequad import (
    DepthExceeded,
    Gauge,
    GaugeFamily,
    Interval,
    InvalidTolerance,
    NonFiniteValue,
    TaggedPartition,
    WitnessNotFound,
    gauge_integrate,
    riemann_sum,
    riemann_unboundedness_witness,
    smooth_gauge_family,
    sum_defect,
)
from gaugequad import oscillator as osc
from gaugequad.integrator import _partitions

from conftest import BLOCK_EDGES, block_sum_reference, const_gauge, partition_of_size

UNIT = Interval(0.0, 1.0)
HALVES = TaggedPartition([0.25, 0.75], [0.0, 0.5, 1.0])


# ------------------------------------------------------------ riemann_sum

def test_riemann_sum_identity_function():
    assert riemann_sum(lambda x: x, HALVES) == pytest.approx(0.5, abs=0.0)


def test_riemann_sum_constant_telescopes():
    p = TaggedPartition([0.3, 0.9, 1.5], [0.2, 0.8, 1.2, 1.7])
    assert riemann_sum(lambda x: 3.0 + 0.0 * np.asarray(x), p) == pytest.approx(
        3.0 * 1.5, rel=1e-15
    )


def test_riemann_sum_rejects_nonfinite_integrand():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteValue):
            riemann_sum(lambda x: 1.0 / (np.asarray(x, dtype=float) - 0.25), HALVES)


@pytest.mark.parametrize(
    "domain, gauge, f",
    [
        # every product is finite, their sum is not
        (Interval(0.0, 4.0), 1.0, lambda x: 1e308 + 0.0 * np.asarray(x)),
        # products overflow to +inf and -inf, whose sum is nan
        (Interval(0.0, 8.0), 4.0, lambda x: np.where(np.asarray(x) < 4.0, 1e308, -1e308)),
    ],
    ids=["overflow", "inf-minus-inf"],
)
def test_riemann_sum_out_of_range_is_typed(domain, gauge, f):
    from gaugequad import cousin_partition

    p = cousin_partition(domain, const_gauge(gauge))
    with pytest.raises(NonFiniteValue):
        riemann_sum(f, p)


def test_riemann_sum_scalar_only_callable_fallback():
    def f(x):
        if hasattr(x, "__len__"):
            raise TypeError("scalar only")
        return math.sin(x)

    expected = math.sin(0.25) * 0.5 + math.sin(0.75) * 0.5
    assert riemann_sum(f, HALVES) == pytest.approx(expected, rel=1e-15)


def test_riemann_sum_linearity_within_ulp_budget():
    rng = np.random.default_rng(7)
    f = lambda x: np.sin(3.0 * np.asarray(x, dtype=float))  # noqa: E731
    g = lambda x: np.exp(np.asarray(x, dtype=float))  # noqa: E731
    a, b = 2.5, -1.25
    from gaugequad import random_delta_fine_partition

    for seed in range(10):
        p = random_delta_fine_partition(
            Interval(0.0, 1.0), Gauge(lambda x: 0.05 + x / 10.0), seed=seed
        )
        lhs = riemann_sum(
            lambda x: a * f(x) + b * g(x), p
        )
        rhs = a * riemann_sum(f, p) + b * riemann_sum(g, p)
        scale = riemann_sum(lambda x: np.abs(a * f(x)) + np.abs(b * g(x)), p)
        assert abs(lhs - rhs) <= 4 * np.finfo(float).eps * max(scale, 1.0)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_riemann_sum_follows_the_block_rule_bitwise(n):
    p = partition_of_size(n)
    f = lambda x: np.sin(7.0 * x) + x  # noqa: E731
    assert riemann_sum(f, p) == block_sum_reference(p, f(p.tags))


def test_riemann_sum_calls_the_integrand_once_per_block():
    p = partition_of_size(3 * 2**16 + 7)
    sizes = []
    riemann_sum(lambda x: sizes.append(len(x)) or x, p)
    assert sizes == [2**16, 2**16, 2**16, 7]


# ------------------------------------------------------------- sum_defect

def test_sum_defect_midpoint_exact_for_linear():
    assert sum_defect(lambda x: x * x / 2.0, lambda x: np.asarray(x, float), HALVES) == 0.0


def test_sum_defect_zero_functions():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
    assert sum_defect(zero, zero, HALVES) == 0.0


# ------------------------------------------------------------ _partitions

DRIVER_GAUGE = Gauge(lambda x: 0.02 + np.asarray(x, dtype=float) / 8.0)


def _same_bytes(p, q):
    return p.tags.tobytes() == q.tags.tobytes() and p.points.tobytes() == q.points.tobytes()


def test_partitions_match_direct_builds_cousin_first():
    from gaugequad import cousin_partition, random_delta_fine_partition

    got = list(_partitions(UNIT, DRIVER_GAUGE, [7, 3], 3, True))
    want = [cousin_partition(UNIT, DRIVER_GAUGE)] + [
        random_delta_fine_partition(UNIT, DRIVER_GAUGE, [7, 3, t]) for t in range(3)
    ]
    assert len(got) == len(want) == 4
    assert all(_same_bytes(p, q) for p, q in zip(got, want))


def test_partitions_without_cousin_yields_only_the_trials():
    from gaugequad import random_delta_fine_partition

    got = list(_partitions(UNIT, DRIVER_GAUGE, [5], 4, False))
    assert len(got) == 4
    for t, p in enumerate(got):
        assert _same_bytes(p, random_delta_fine_partition(UNIT, DRIVER_GAUGE, [5, t]))


def test_partitions_propagates_depth_exceeded(monkeypatch):
    from gaugequad import integrator

    build = integrator._random_partition

    def build_then_fail(domain, g, seed):
        if seed[-1] == 1:
            raise DepthExceeded("trial 1 too deep")
        return build(domain, g, seed)

    # the driver looks its builders up at call time, so this rebinding reaches it
    monkeypatch.setattr(integrator, "_random_partition", build_then_fail)
    parts = _partitions(UNIT, DRIVER_GAUGE, [0], 3, True)
    next(parts), next(parts)
    with pytest.raises(DepthExceeded, match="trial 1"):
        next(parts)


# ------------------------------------------------- sums overlapping builds

def test_integrand_runs_on_a_worker_and_the_gauge_on_the_caller():
    seen = {"f": set(), "gauge": set()}

    def track(name, fn):
        def tracked(x):
            seen[name].add(threading.get_ident())
            return fn(x)
        return tracked

    fam = GaugeFamily(lambda eps: Gauge(track("gauge", lambda x: np.full_like(x, 0.05))))
    gauge_integrate(track("f", lambda x: x), fam, UNIT, 1e-2)
    assert seen["gauge"] == {threading.get_ident()}
    assert seen["f"] and threading.get_ident() not in seen["f"]


def test_overlapped_keeps_order_and_one_total_in_flight():
    from gaugequad.integrator import _overlapped

    lock = threading.Lock()
    in_flight = []
    peak = []

    def total(i, p):
        with lock:
            in_flight.append(i)
            peak.append(len(in_flight))
        time.sleep(0)
        with lock:
            in_flight.remove(i)
        return i, p

    def parts():
        for k in range(300):
            time.sleep(0)
            yield k * k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _overlapped(total, parts())
    finally:
        sys.setswitchinterval(interval)
    assert got == [(k, k * k) for k in range(300)]
    assert max(peak) == 1


def test_overlapped_runs_every_total_on_one_worker_thread():
    from gaugequad.integrator import _overlapped

    threads = _overlapped(lambda i, p: threading.current_thread(), iter(range(5)))
    assert len(threads) == 5
    assert all(t is threads[0] for t in threads)
    assert threads[0] is not threading.current_thread()
    assert threads[0].name.startswith("gaugequad-sum")


def test_overlapped_stops_building_after_a_failed_total():
    from gaugequad.integrator import _overlapped

    builds = []

    def parts():
        for k in range(5):
            builds.append(k)
            yield k

    def total(i, p):
        if i == 1:
            raise NonFiniteValue("total 1")
        return p

    before = threading.active_count()
    with pytest.raises(NonFiniteValue, match="total 1"):
        _overlapped(total, parts())
    # total 1 overlaps build 2 and is awaited before build 3 starts
    assert builds == [0, 1, 2]
    assert threading.active_count() == before


def test_sum_error_wins_over_the_next_build_error(monkeypatch):
    from gaugequad import integrator

    building = threading.Event()

    def build_fails(domain, g, seed):
        building.set()
        raise DepthExceeded("trial 0 too deep")

    def f(x):
        assert building.wait(10)  # the cousin sum is in flight while trial 0 builds
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    monkeypatch.setattr(integrator, "_random_partition", build_fails)
    before = threading.active_count()
    with pytest.raises(NonFiniteValue):
        gauge_integrate(f, smooth_gauge_family(), UNIT, 1e-2)
    assert threading.active_count() == before


def test_callers_errstate_reaches_the_integrand():
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):  # the cousin partition tags 0
            gauge_integrate(
                lambda x: 1.0 / np.asarray(x, dtype=float), smooth_gauge_family(), UNIT, 1e-2
            )


def test_no_thread_outlives_a_call():
    before = threading.active_count()
    gauge_integrate(lambda x: x, smooth_gauge_family(), UNIT, 1e-2)
    assert threading.active_count() == before
    with pytest.raises(NonFiniteValue):
        gauge_integrate(
            lambda x: np.full_like(np.asarray(x, dtype=float), np.inf),
            smooth_gauge_family(), UNIT, 1e-2,
        )
    assert threading.active_count() == before


# --------------------------------------------------------- gauge_integrate

def test_gauge_integrate_x_squared():
    est = gauge_integrate(
        lambda x: np.asarray(x, dtype=float) ** 2,
        smooth_gauge_family(),
        Interval(0.0, 1.0),
        tol=1e-9,
        trials=3,
        seed=1,
    )
    assert est.converged
    assert est.spread <= 1e-9
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_gauge_integrate_polynomials_match_closed_forms():
    # light sweep; the full degree <= 5 run at tol 1e-9 is acceptance A10
    for k in (0, 1, 3):
        est = gauge_integrate(
            lambda x, _k=k: np.asarray(x, dtype=float) ** _k,
            smooth_gauge_family(),
            Interval(0.0, 1.0),
            tol=1e-7,
            trials=2,
            seed=k,
        )
        assert est.converged
        assert est.value == pytest.approx(1.0 / (k + 1), abs=1e-6)


def test_gauge_integrate_truncated_family_j2():
    est = gauge_integrate(
        lambda x: osc.f_j(2, x),
        osc.truncated_gauge_family(2),
        Interval(0.0, 1.0),
        tol=1e-4,
        trials=3,
        seed=0,
    )
    assert est.converged
    assert est.value == pytest.approx(osc.exact_integral_fj(2), abs=1e-4)
    # frozen closed form: sin 1 - sin(4)/4
    assert osc.exact_integral_fj(2) == pytest.approx(1.0306716086348786, abs=1e-15)


def test_gauge_integrate_is_deterministic():
    kwargs = dict(tol=1e-6, trials=3, seed=123)
    f = lambda x: np.asarray(x, dtype=float) ** 3  # noqa: E731
    e1 = gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), **kwargs)
    e2 = gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), **kwargs)
    assert e1 == e2


def test_gauge_integrate_validates_arguments():
    f = lambda x: np.asarray(x, dtype=float)  # noqa: E731
    with pytest.raises(InvalidTolerance):
        gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), tol=0.0)
    with pytest.raises(InvalidTolerance):
        gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), tol=-1e-3)
    with pytest.raises(ValueError):
        gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), tol=1e-3, trials=1)


def test_gauge_integrate_depth_exceeded_first_level_raises(monkeypatch):
    from gaugequad import DepthExceeded, partition

    monkeypatch.setattr(partition, "_MAX_DEPTH", 16)
    family = GaugeFamily(lambda eps: const_gauge(1e-30))
    with pytest.raises(DepthExceeded):
        gauge_integrate(
            lambda x: np.asarray(x, dtype=float),
            family,
            Interval(0.0, 1.0),
            tol=1e-3,
            trials=2,
        )


def test_gauge_integrate_unconverged_returns_last_estimate(monkeypatch):
    # coarse gauge keeps sampled sums wider than tol for a few levels, then
    # the family collapses below float representability
    from gaugequad import partition

    monkeypatch.setattr(partition, "_MAX_DEPTH", 12)

    def at(eps):
        if eps < 1e-13:
            return const_gauge(1e-300)
        return const_gauge(0.3)

    rng_f = lambda x: np.cos(37.0 * np.asarray(x, dtype=float))  # noqa: E731
    est = gauge_integrate(
        rng_f, GaugeFamily(at), Interval(0.0, 1.0), tol=1e-12, trials=2
    )
    assert not est.converged
    assert est.cells_used >= 1
    assert est.spread > 1e-12


# ----------------------------------------- riemann_unboundedness_witness

def test_witness_found_for_unbounded_oscillator():
    p = riemann_unboundedness_witness(osc.f, Interval(0.0, 1.0), 0.1, 1e3)
    assert np.all(p.lengths < 0.1)
    assert abs(riemann_sum(osc.f, p)) > 1e3


def test_witness_larger_bound_still_found():
    p = riemann_unboundedness_witness(osc.f, Interval(0.0, 1.0), 0.1, 1e6)
    assert abs(riemann_sum(osc.f, p)) > 1e6


@pytest.mark.parametrize(
    "delta_const, bound",
    [(math.nan, 1e3), (math.inf, 1e3), (0.0, 1e3), (0.1, math.nan), (0.1, math.inf)],
)
def test_witness_rejects_non_finite_inputs(delta_const, bound):
    with pytest.raises(ValueError, match="need finite delta_const > 0 and bound"):
        riemann_unboundedness_witness(osc.f, Interval(0.0, 1.0), delta_const, bound)


def test_witness_not_found_for_bounded_function():
    with pytest.raises(WitnessNotFound):
        riemann_unboundedness_witness(
            lambda x: np.asarray(x, dtype=float), Interval(0.0, 1.0), 0.1, 1e3
        )
