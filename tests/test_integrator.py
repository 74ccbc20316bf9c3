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
    gauge_integrate,
    riemann_sum,
    smooth_gauge_family,
    sum_defect,
)
from gaugequad import oscillator as osc
from gaugequad.integrator import _sample

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


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_sum_defect_rejects_a_primitive_non_finite_at_a_domain_end(end):
    F = lambda x: math.inf if x == end else x  # noqa: E731
    with pytest.raises(NonFiniteValue, match="primitive non-finite at a domain endpoint"):
        sum_defect(F, lambda x: np.ones_like(x), HALVES)


# ---------------------------------------------------------------- _sample

DRIVER_GAUGE = Gauge(lambda x: 0.02 + np.asarray(x, dtype=float) / 8.0)


def _same_bytes(p, q):
    return p.tags.tobytes() == q.tags.tobytes() and p.points.tobytes() == q.points.tobytes()


def _stand_in_builders(monkeypatch):
    """Cheap stand-ins for both builders, each returning its own log entry:
    ("cousin", gauge) or (gauge, *seed).  Returns the log of builds."""
    from gaugequad import integrator

    builds = []

    def cousin(domain, g):
        builds.append(("cousin", g))
        return builds[-1]

    def seeded(domain, g, seed):
        time.sleep(0)
        builds.append((g, *seed))
        return builds[-1]

    # _sample looks its builders up at every build, so this rebinding reaches it
    monkeypatch.setattr(integrator, "cousin_partition", cousin)
    monkeypatch.setattr(integrator, "_random_partition", seeded)
    return builds


def test_sample_builds_the_cousin_first_then_the_trials_bytewise():
    from gaugequad import cousin_partition, random_delta_fine_partition

    got = _sample(UNIT, [(DRIVER_GAUGE, [7, 3])], 3, True, lambda i, p: p)
    want = [cousin_partition(UNIT, DRIVER_GAUGE)] + [
        random_delta_fine_partition(UNIT, DRIVER_GAUGE, [7, 3, t]) for t in range(3)
    ]
    assert len(got) == len(want) == 4
    assert all(_same_bytes(p, q) for p, q in zip(got, want))


def test_sample_without_cousin_sums_only_the_trials():
    from gaugequad import random_delta_fine_partition

    got = _sample(UNIT, [(DRIVER_GAUGE, [5])], 4, False, lambda i, p: p)
    assert len(got) == 4
    for t, p in enumerate(got):
        assert _same_bytes(p, random_delta_fine_partition(UNIT, DRIVER_GAUGE, [5, t]))


def test_sample_propagates_depth_exceeded(monkeypatch):
    from gaugequad import integrator

    build = integrator._random_partition

    def build_then_fail(domain, g, seed):
        if seed[-1] == 1:
            raise DepthExceeded("trial 1 too deep")
        return build(domain, g, seed)

    monkeypatch.setattr(integrator, "_random_partition", build_then_fail)
    summed = []
    with pytest.raises(DepthExceeded, match="trial 1"):
        _sample(UNIT, [(DRIVER_GAUGE, [0])], 3, True, lambda i, p: summed.append(i))
    assert summed == [0, 1]  # the cousin and trial 0


@pytest.mark.threads
def test_sample_reads_runs_lazily_in_order_and_counts_i_across_them(monkeypatch):
    builds = _stand_in_builders(monkeypatch)
    read = []

    def runs():
        for n, name in enumerate("abc"):
            read.append((name, len(builds)))  # the builds done when this run is read
            yield name, [4, n]

    got = _sample(UNIT, runs(), 2, True, lambda i, p: (i, p))
    want = [b for n, g in enumerate("abc") for b in [("cousin", g), (g, 4, n, 0), (g, 4, n, 1)]]
    assert got == list(enumerate(want))
    assert builds == want
    assert read == [("a", 0), ("b", 3), ("c", 6)]


def test_sample_checks_each_runs_seed_before_its_first_build(monkeypatch):
    builds = _stand_in_builders(monkeypatch)
    with pytest.raises(ValueError, match=r"seed .*\[1, -1\]"):
        _sample(UNIT, [("a", [0]), ("b", [1, -1])], 1, True, lambda i, p: p)
    assert builds == [("cousin", "a"), ("a", 0, 0)]


# ------------------------------------------------- sums overlapping builds

@pytest.mark.threads
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


@pytest.mark.threads
def test_sample_keeps_order_and_one_total_in_flight(monkeypatch):
    _stand_in_builders(monkeypatch)
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

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _sample(UNIT, [("g", [9])], 300, False, total)
    finally:
        sys.setswitchinterval(interval)
    assert got == [(k, ("g", 9, k)) for k in range(300)]
    assert max(peak) == 1


@pytest.mark.threads
def test_sample_runs_every_total_on_one_worker_thread(monkeypatch):
    _stand_in_builders(monkeypatch)
    threads = _sample(UNIT, [("g", [0])], 4, True, lambda i, p: threading.current_thread())
    assert len(threads) == 5
    assert all(t is threads[0] for t in threads)
    assert threads[0] is not threading.current_thread()
    assert threads[0].name.startswith("gaugequad-sum")


@pytest.mark.threads
def test_sample_stops_building_after_a_failed_total(monkeypatch):
    builds = _stand_in_builders(monkeypatch)

    def total(i, p):
        if i == 1:
            raise NonFiniteValue("total 1")
        return p

    before = threading.active_count()
    with pytest.raises(NonFiniteValue, match="total 1"):
        _sample(UNIT, [("g", [0])], 4, True, total)
    # total 1 overlaps build 2 and is awaited before build 3 starts
    assert builds == [("cousin", "g"), ("g", 0, 0), ("g", 0, 1)]
    assert threading.active_count() == before


@pytest.mark.threads
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


@pytest.mark.threads
def test_callers_errstate_reaches_the_integrand():
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):  # the cousin partition tags 0
            gauge_integrate(
                lambda x: 1.0 / np.asarray(x, dtype=float), smooth_gauge_family(), UNIT, 1e-2
            )


@pytest.mark.threads
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
    with pytest.raises(InvalidTolerance, match="tol must be finite and positive, got nan"):
        gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), tol=math.nan)
    with pytest.raises(ValueError):
        gauge_integrate(f, smooth_gauge_family(), Interval(0.0, 1.0), tol=1e-3, trials=1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "family", [smooth_gauge_family, osc.loop_gauge_family], ids=["smooth", "loop"]
)
def test_family_rejects_a_bad_eps_with_invalid_tolerance(family, eps):
    assert issubclass(InvalidTolerance, ValueError)
    with pytest.raises(InvalidTolerance, match="eps must be finite and positive"):
        family().at(eps)


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


# --------------------------------- constant delta: Riemann sums diverge

@pytest.mark.parametrize("n", [10**3, 10**6, 10**9])
def test_constant_delta_riemann_sums_of_f_are_unbounded(n):
    # The paper's contrast: f's gauge integral is sin 1, yet a partition
    # with every cell 0.1 long, fine for any constant delta > 0.1, has a
    # sum of any size.  At t = 1/sqrt(2 pi n), sin(1/t^2) = 0 and
    # cos(1/t^2) = 1, so f(t) = -2/t and the first term is -0.2 sqrt(2 pi n),
    # while the other nine terms stay bounded.
    edges = np.linspace(0.0, 1.0, 11)
    tags = 0.5 * (edges[:-1] + edges[1:])
    tags[0] = 1.0 / math.sqrt(2.0 * math.pi * n)
    total = riemann_sum(osc.f, TaggedPartition(tags, edges))
    assert abs(total) > 0.1 * math.sqrt(2.0 * math.pi * n)
