import math
import re
import warnings

import numpy as np
import pytest

from gaugequad import (
    DomainError,
    Interval,
    InvalidIndex,
    cousin_partition,
    gauge_integrate,
    is_delta_fine,
    random_delta_fine_partition,
    smooth_gauge_family,
)
from gaugequad import oscillator as osc
from gaugequad.criteria import _positive_indices
from gaugequad.integrator import _family
from gaugequad.oscillator import loop_root

SIN1 = 0.8414709848078965


def loop_gauge(eps_scale):
    """The structural loop gauge: the tent alone, capped at eps_scale."""
    return _family(osc._tent_delta).at(eps_scale)


def F_j(j, x):
    """The truncated primitive: F(x) for x >= 1/j, else 0."""
    return osc._truncated(osc._raw_F, x, j)


# The earlier two-branch loop gauge, verbatim apart from its name: one block
# for 0 < x < r1 and one for x >= r1.  `_tent_delta` must match it bit for bit.
def reference_tent_delta(x: np.ndarray, eps_scale: float) -> np.ndarray:
    """Structural loop gauge on an array of points.

    Between adjacent roots: half the distance to the nearer root.  At a
    root: half of min(root, gap to the next smaller root).  At 0 (and as a
    cap everywhere): eps_scale.  An 8-ulp floor keeps the rule
    representable right next to root floats.
    """
    out = np.full_like(x, eps_scale)
    r1 = loop_root(1)

    pos = (x > 0.0) & (x < r1)
    if pos.any():
        xp = x[pos]
        k = np.floor(1.0 / (xp * xp) / math.pi - 0.5)
        k = np.maximum(k, 1.0)
        rk = loop_root(k)
        k = np.where(rk < xp, np.maximum(k - 1.0, 1.0), k)
        rk = loop_root(k)
        rk1 = loop_root(k + 1.0)
        shift = rk1 > xp
        if shift.any():
            k = np.where(shift, k + 1.0, k)
            rk = loop_root(k)
            rk1 = loop_root(k + 1.0)
        n_at = np.where(xp == rk, k, k + 1.0)
        at_root = (xp == rk) | (xp == rk1)
        r_at = loop_root(n_at)
        s = np.where(
            at_root,
            0.5 * np.minimum(r_at, r_at - loop_root(n_at + 1.0)),
            0.5 * np.minimum(xp - rk1, rk - xp),
        )
        s = np.maximum(s, 8.0 * np.spacing(xp))
        out[pos] = np.minimum(eps_scale, s)

    hi = x >= r1
    if hi.any():
        xh = x[hi]
        s = np.where(
            xh == r1,
            0.5 * np.minimum(r1, r1 - loop_root(2)),
            0.5 * (xh - r1),
        )
        s = np.maximum(s, 8.0 * np.spacing(xh))
        out[hi] = np.minimum(eps_scale, s)
    return out


# The earlier loop-family kernel, verbatim apart from its name: the full
# tent at every point.  `loop_gauge_family().at(eps)` must match it bit for
# bit wherever it is positive.
def reference_loop_family_delta(x, eps):
    h = math.sqrt(0.5 * eps)
    tent = np.minimum(osc._tent_delta(x, h), 2.0 * eps * x * x * x)
    return np.where(x > 0.0, np.maximum(tent, osc._REL_FLOOR * x), h)


# The earlier integrand kernel, fig1 - fig2 as two separate curves.
def reference_raw_f(x):
    return osc._sin_term(x) - osc._cos_term(x)


# The earlier truncation, verbatim apart from its name: the kernel on the
# boolean gather of the live points, scattered into zeros.  `_truncated`
# must match it bit for bit.
def reference_truncated(kernel, x, j=None):
    """kernel on the live points of x and 0 elsewhere; scalar in, scalar out.

    Live means x > 0, or x >= 1/j when a truncation index j (a positive
    integer or an integer array aligned with x) is given.
    """
    if j is not None:
        _positive_indices(j)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    osc._check_domain(arr)
    if j is None:
        live = arr > 0.0
    else:
        jarr = np.asarray(j, dtype=float)
        arr = np.broadcast_to(arr, np.broadcast_shapes(arr.shape, jarr.shape))
        live = arr >= 1.0 / jarr
    out = np.zeros(arr.shape)
    out[live] = kernel(arr[live])
    return float(out) if scalar and out.ndim == 0 else out


# The earlier criterion-1 threshold, verbatim apart from its name: ceil(1/x)
# on a boolean gather of the positive points, 1 elsewhere.
def reference_threshold(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    out = np.ones_like(arr)
    pos = arr > 0.0
    out[pos] = np.ceil(1.0 / arr[pos])
    out = out.astype(np.int64)
    return int(out) if scalar else out


# ------------------------------------------------------------ the family

def test_f_at_zero_and_one():
    assert osc.f(0.0) == 0.0
    # 2 sin 1 - 2 cos 1, frozen
    assert osc.f(1.0) == pytest.approx(0.6023373578795135, abs=1e-15)


def test_f_rejects_points_outside_domain():
    with pytest.raises(DomainError):
        osc.f(-0.1)
    with pytest.raises(DomainError):
        osc.f(1.1)
    with pytest.raises(DomainError):
        osc.f(np.array([0.3, 1.2]))


def test_f_magnitude_at_loop_roots():
    # the cosine term vanishes at the roots up to float phase error of
    # order (2/r) * (1/r^2) * eps, so allow that much headroom
    for n in (1, 2, 3, 10, 100, 1000):
        r = osc.loop_root(n)
        phase_slop = (2.0 / r) * (1.0 / r**2) * 8.0 * np.finfo(float).eps
        assert abs(osc.f(r)) <= 2.0 * r + phase_slop


def test_f_array_matches_scalar():
    xs = np.array([0.0, 0.1, 0.37, 1.0])
    vals = osc.f(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert osc.f(float(x)) == v


def test_f_j_truncation_branches():
    assert osc.f_j(2, 0.3) == 0.0  # 0.3 < 1/2
    assert osc.f_j(2, 0.5) == osc.f(0.5)  # boundary: 1/j <= x keeps the formula
    assert osc.f_j(3, 0.0) == 0.0


def test_f_j_equals_f_beyond_threshold_bitwise():
    xs = np.linspace(0.11, 1.0, 57)
    for j in (10, 11, 40):
        left = osc.f_j(j, xs)
        right = osc.f(xs)
        live = xs >= 1.0 / j
        assert np.array_equal(left[live], right[live])
        assert np.all(left[~live] == 0.0)


def _f_points(rng):
    # uniform and log-uniform points down to 1e-150, where 1/(x x) is finite
    return np.concatenate([
        rng.uniform(0.0, 1.0, 100_000),
        np.exp(rng.uniform(math.log(1e-150), 0.0, 100_000)),
        loop_root(np.arange(1.0, 2000.0)),
        [0.0, 1.0],
    ])


def test_f_and_f_j_match_reference_kernel_bitwise():
    rng = np.random.default_rng(17)
    xs = _f_points(rng)
    want = np.zeros_like(xs)
    live = xs > 0.0
    want[live] = reference_raw_f(xs[live])
    assert osc.f(xs).tobytes() == want.tobytes()
    js = rng.integers(1, 10**6, xs.size)
    want_j = np.where(xs >= 1.0 / js, want, 0.0)
    assert osc.f_j(js, xs).tobytes() == want_j.tobytes()
    assert osc.f_j(js.astype(float), xs).tobytes() == want_j.tobytes()
    # 1/(x x) overflows here in both kernels
    tiny = np.array([1e-160, 1e-300, 5e-324])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert osc.f(tiny).tobytes() == reference_raw_f(tiny).tobytes()


def test_fig3_matches_reference_kernel_bitwise():
    rows = osc.figure_samples("fig3", 1e-3, 1.0, 200_001)
    xs = np.linspace(1e-3, 1.0, 200_001)
    assert [x for x, _ in rows] == xs.tolist()
    assert [y for _, y in rows] == reference_raw_f(xs).tolist()


@pytest.mark.parametrize("j", [math.inf, math.nan, 1.5, 0.7, 0, -2])
@pytest.mark.parametrize("kernel", [osc.f_j, F_j])
def test_truncation_index_must_be_a_finite_positive_integer(kernel, j):
    with pytest.raises(ValueError, match="positive integers"):
        kernel(j, 0.0)
    with pytest.raises(ValueError, match="positive integers"):
        kernel(np.array([2.0, j]), np.array([0.3, 0.7]))


@pytest.mark.parametrize("j", [math.inf, math.nan, 1.5, 0.7, 0, -2])
def test_exact_integral_fj_rejects_bad_index(j):
    with pytest.raises(ValueError, match="positive integers"):
        osc.exact_integral_fj(j)


def test_integral_float_indices_are_accepted():
    assert osc.f_j(5.0, 0.3) == osc.f_j(5, 0.3)
    assert osc.exact_integral_fj(5.0) == osc.exact_integral_fj(5)
    xs = np.array([0.1, 0.3, 0.7])
    got = osc.f_j(np.array([5.0, 2.0, 2.0]), xs)
    assert got.tobytes() == osc.f_j(np.array([5, 2, 2]), xs).tobytes()


def test_index_beyond_int64_is_accepted():
    # numpy holds 10**20 as an object array; it is still a positive integer
    j = 10**20
    assert osc.f_j(j, 0.5) == osc.f(0.5)
    assert osc.f_j(j, 0.0) == 0.0
    assert abs(osc.exact_integral_fj(j) - math.sin(1.0)) <= 1e-40
    with pytest.raises(ValueError, match="positive integers"):
        osc.f_j(10**400, 0.5)


def test_f_j_vectorized_over_indices():
    xs = np.array([0.05, 0.2, 0.6])
    js = np.array([30, 4, 2])
    out = osc.f_j(js, xs)
    assert out[0] == osc.f_j(30, 0.05)
    assert out[1] == osc.f_j(4, 0.2)
    assert out[2] == osc.f_j(2, 0.6)


TRUNCATED = [
    pytest.param(osc.f, osc._raw_f, False, id="f"),
    pytest.param(osc.F, osc._raw_F, False, id="F"),
    pytest.param(osc.f_j, osc._raw_f, True, id="f_j"),
    pytest.param(F_j, osc._raw_F, True, id="F_j"),
]


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want


@pytest.mark.parametrize("fn, kernel, indexed", TRUNCATED)
def test_truncated_kernels_match_reference_bitwise(fn, kernel, indexed):
    rng = np.random.default_rng(5)
    # and every 1/j with the float just below it
    cuts = 1.0 / np.arange(1.0, 400.0)
    xs = np.concatenate([_f_points(rng), cuts, np.nextafter(cuts, 0.0)])
    scalars = [0.0, -0.0, 1.0, 0.05, 0.1, 1.0 / 3.0, float(loop_root(7))]
    if not indexed:
        assert_same(fn(xs), reference_truncated(kernel, xs))
        for x in scalars:
            assert_same(fn(x), reference_truncated(kernel, x))
        return
    int_js = rng.integers(1, 10**6, xs.size)
    indices = [
        1, 10, 320, 320.0, 10**20, int_js, int_js.astype(float),
        # a column of indices against a row of points
        np.array([[1], [7], [320], [10**6]]),
    ]
    for j in indices:
        assert_same(fn(j, xs), reference_truncated(kernel, xs, j))
        for x in scalars:
            assert_same(fn(j, x), reference_truncated(kernel, x, j))
    column = np.array([[2], [30]])
    assert_same(fn(column, 0.1), reference_truncated(kernel, 0.1, column))


def test_dead_points_never_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert osc.f(0.0) == 0.0
        assert osc.f_j(10, 0.05) == 0.0
        assert F_j(10**6, np.array([0.0, 1e-170])).tolist() == [0.0, 0.0]


def test_live_points_keep_their_warnings():
    # x x underflows to 0 at a live point, so 1/(x x) warns, as it always has
    with pytest.warns(RuntimeWarning):
        osc.f(1e-170)
    with pytest.warns(RuntimeWarning):
        osc.f_j(10**200, np.array([0.5, 1e-170]))


def test_index_selector_threshold_matches_reference_bitwise():
    rng = np.random.default_rng(9)
    # 1/x stays below 2**63, where both thresholds cast to int64 exactly
    xs = np.concatenate([
        [0.0, -0.0, 1.0, 0.5, 1e-18],
        1.0 / np.arange(1.0, 500.0),
        rng.uniform(0.0, 1.0, 5000),
        np.exp(rng.uniform(math.log(1e-18), 0.0, 5000)),
    ])
    threshold = osc.index_selector().threshold
    got, want = threshold(xs), reference_threshold(xs)
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes()
    assert threshold(np.empty(0)).tobytes() == reference_threshold(np.empty(0)).tobytes()
    for x in (0.0, 1.0, 0.3, 1.0 / 3.0, 1e-18):
        assert type(threshold(x)) is int
        assert threshold(x) == reference_threshold(x)


def test_primitive_values():
    assert osc.F(0.0) == 0.0
    assert osc.F(1.0) == pytest.approx(SIN1, abs=1e-15)
    # F(1/2) = 0.25 sin 4, frozen
    assert osc.F(0.5) == pytest.approx(-0.18920062382698205, abs=1e-15)


def test_truncated_primitive_jump_at_threshold():
    # left branch is 0, right branch is F: jump of |sin(j^2)|/j^2 at 1/j
    j = 2
    below = math.nextafter(0.5, 0.0)
    assert F_j(j, below) == 0.0
    assert F_j(j, 0.5) == osc.F(0.5)
    jump = abs(osc.F(0.5))
    assert jump == pytest.approx(abs(math.sin(4.0)) / 4.0, abs=1e-15)


def test_primitive_derivative_matches_f_by_finite_differences():
    h = 1e-7
    for x in np.linspace(0.3, 1.0, 100):
        x = float(x)
        quotient = (osc.F(min(x + h, 1.0)) - osc.F(x - h)) / (min(x + h, 1.0) - (x - h))
        assert abs(quotient - osc.f(x)) < 1e-4


def test_primitive_right_derivative_at_zero():
    for h in np.geomspace(1e-6, 1.0, 40):
        assert abs(osc.F(float(h)) / h) <= h


# ----------------------------------------------------------- loop helpers

def test_loop_root_values_and_monotonicity():
    assert osc.loop_root(1) == pytest.approx(0.46065886596178063, abs=1e-16)
    assert osc.loop_root(2) == pytest.approx(0.3568248232305542, abs=1e-16)
    ns = np.unique(np.geomspace(1, 10**6, 200).astype(np.int64))
    roots = osc.loop_root(ns)
    assert np.all(np.diff(roots) < 0)


def test_loop_area_values_and_monotonicity():
    assert osc.loop_area_estimate(1) == pytest.approx(0.3395305452627101, abs=1e-16)
    areas = osc.loop_area_estimate(np.arange(1, 2000))
    assert np.all(areas > 0)
    assert np.all(np.diff(areas) < 0)


def test_loop_area_matches_gauge_integrated_loop():
    # full n in [50, 200] sweep with the pinned tolerance is acceptance A4
    from conftest import const_gauge
    from gaugequad import riemann_sum

    for n in (50, 200):
        lo, hi = osc.loop_root(n + 1), osc.loop_root(n)
        p = cousin_partition(Interval(lo, hi), const_gauge((hi - lo) / 64.0))
        area = abs(riemann_sum(osc.f, p))
        a_n = osc.loop_area_estimate(n)
        assert area == pytest.approx(a_n, rel=0.15)


def test_divergence_of_even_and_odd_loop_area_series():
    # brute-force oracle: even partial sums first exceed 1.0 at n = 46,
    # odd at n = 23 (pinned before the build)
    even = np.cumsum(osc.loop_area_estimate(np.arange(2, 60, 2)))
    odd = np.cumsum(osc.loop_area_estimate(np.arange(1, 60, 2)))
    assert np.all(np.diff(even) > 0) and np.all(np.diff(odd) > 0)
    n_even = 2 * (int(np.argmax(even > 1.0)) + 1)
    n_odd = 2 * int(np.argmax(odd > 1.0)) + 1
    assert n_even == 46
    assert n_odd == 23


def test_alternating_series_brackets():
    n = np.arange(1, 3000)
    terms = ((-1.0) ** n) * osc.loop_area_estimate(n)
    partial = np.cumsum(terms)
    # consecutive partial sums bracket every later partial sum
    for k in (0, 1, 10, 500):
        lo, hi = sorted((partial[k], partial[k + 1]))
        tail = partial[k + 1 :]
        assert np.all((tail >= lo) & (tail <= hi))


# ----------------------------------------------------------------- gauges

def _ulp_neighbours(xs, count):
    """xs and its first `count` float neighbours on either side."""
    out, up, down = [xs], xs, xs
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_tent_delta_matches_reference_bitwise():
    # the single-bracket rule against the earlier two-branch one: roots
    # n <= 1e5 at +-4 ulps (where the closed-form index is off by one),
    # r(0), r1 at +-ulps, 0, 1, subnormals, log-uniform points down to
    # 1e-300, where x*x underflows, and roots with n log-uniform in
    # [1e5, 1e300] at +-8 ulps, where the uncorrected bracket misses
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        _ulp_neighbours(osc.loop_root(np.arange(0.0, 100_001.0)), 4),
        _ulp_neighbours(np.array([osc.loop_root(1)]), 64),
        [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308],
        np.exp(rng.uniform(math.log(1e-300), 0.0, 200_000)),
        _ulp_neighbours(
            osc.loop_root(
                np.floor(np.exp(rng.uniform(math.log(1e5), math.log(1e300), 20_000)))
            ),
            8,
        ),
    ])
    for eps_scale in (10.0, 0.5, math.sqrt(5e-4), 1e-5):
        got = osc._tent_delta(xs, eps_scale)
        with np.errstate(divide="ignore", over="ignore"):
            want = reference_tent_delta(xs, eps_scale)
        assert got.tobytes() == want.tobytes()


def test_loop_gauge_below_underflow_of_x_squared():
    # x*x is 0 or subnormal here: the floor 8 ulp(x) is the value, and no
    # divide or overflow warning escapes (warnings are errors in this suite)
    xs = np.array([5e-324, 1e-200, 1e-160])
    got = loop_gauge(1.0).eval_many(xs)
    assert got.tolist() == (8.0 * np.spacing(xs)).tolist()
    assert got == pytest.approx([3.95252517e-323, 1.16033421e-215, 1.26349207e-175])
    with np.errstate(divide="ignore", over="ignore"):
        assert got.tobytes() == reference_tent_delta(xs, 1.0).tobytes()


def _near_roots(rng, count, eps):
    # points at root phases n + t, n log-uniform in [1, 1e9], |t - n| <= 10 eps
    n = np.floor(np.exp(rng.uniform(0.0, math.log(1e9), count)))
    t = n + rng.uniform(-10.0, 10.0, count) * eps
    return np.sqrt(1.0 / (math.pi * (t + 0.5)))


FAMILY_EPS = (1e-1, 1.0 / 16.0, 1e-2, 1e-3, 3e-4, 1e-6, 1e-9)


def test_loop_family_matches_reference_bitwise():
    # the phase certificate against the full tent everywhere: near roots,
    # at roots +-8 ulps, at and above r1, off the domain, at 0 and at
    # subnormals (where the reference's zeros become spacing(x))
    rng = np.random.default_rng(23)
    common = np.concatenate([
        _ulp_neighbours(loop_root(np.floor(np.exp(rng.uniform(0.0, math.log(1e9), 5_000)))), 8),
        _ulp_neighbours(np.array([loop_root(1), loop_root(2)]), 64),
        rng.uniform(loop_root(1), 1.0, 1_000),
        np.exp(rng.uniform(math.log(1e-300), 0.0, 100_000)),
        [0.0, -0.0, -0.25, -1.0, 2.0, math.nan, -math.inf, 1e-300],
        [5e-324, 1e-320, 1e-316, 1e-310, 2.2250738585072014e-308],
    ])
    for eps in FAMILY_EPS:
        xs = np.concatenate([_near_roots(rng, 400_000, eps), common])
        got = osc.loop_gauge_family().at(eps).delta(xs)
        want = reference_loop_family_delta(xs, eps)
        want = np.where(want == 0.0, np.spacing(xs), want)
        assert got.tobytes() == want.tobytes()
        # inf - inf inside the tent: both give nan with the same warning
        with np.errstate(invalid="ignore"):
            got = osc.loop_gauge_family().at(eps).delta(np.array([math.inf]))
            want = reference_loop_family_delta(np.array([math.inf]), eps)
        assert got.tobytes() == want.tobytes()


def test_loop_family_positive_at_subnormals():
    g = osc.loop_gauge_family().at(1e-3)
    assert g(1e-320) == 5e-324
    xs = np.array([5e-324, 1e-320, 1e-316, 2.2250738585072014e-308])
    assert np.all(g.eval_many(xs) > 0.0)


def test_truncated_gauge_scalar_call_equals_eval_many():
    g = osc.truncated_gauge_family(64).at(1e-3)
    assert g(0.3) == 6.975000000000001e-05
    assert g(0.3) == g.eval_many(np.array([0.3]))[0]


@pytest.mark.parametrize(
    "g",
    [
        loop_gauge(0.05),
        osc.loop_gauge_family().at(1e-3),
        osc.truncated_gauge_family(64).at(1e-3),
        smooth_gauge_family().at(1e-3),
    ],
    ids=["loop_gauge", "loop_family", "truncated", "smooth"],
)
def test_gauge_scalar_and_direct_delta_calls_equal_eval_many(g):
    xs = np.array([0.0, 0.01, 1.0 / 64, osc.loop_root(3), 0.3, osc.loop_root(1), 1.0])
    many = g.eval_many(xs)
    for x, d in zip(xs, many):
        assert g(float(x)) == d


BAD_PARAMETERS = [math.nan, math.inf, 0.0, -1.0]

GAUGE_CONSTRUCTORS = {
    "smooth.at": lambda v: smooth_gauge_family().at(v),
    "loop_family.at": lambda v: osc.loop_gauge_family().at(v),
    "truncated.at": lambda v: osc.truncated_gauge_family(8).at(v),
    "loop_gauge": loop_gauge,
    "truncated_j": osc.truncated_gauge_family,
}


@pytest.mark.parametrize("value", BAD_PARAMETERS)
@pytest.mark.parametrize("make", sorted(GAUGE_CONSTRUCTORS))
def test_gauge_parameters_checked_at_construction(make, value):
    with pytest.raises(ValueError):
        GAUGE_CONSTRUCTORS[make](value)


def test_loop_gauge_value_at_zero_is_eps_scale():
    for eps in (0.3, 0.05, 1e-3):
        assert loop_gauge(eps)(0.0) == eps


def test_loop_gauge_between_roots_bound():
    g = loop_gauge(10.0)  # cap out of the way
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        lo, hi = osc.loop_root(n + 1), osc.loop_root(n)
        x = float(rng.uniform(lo + 1e-12, hi - 1e-12))
        bound = 0.5 * min(x - lo, hi - x)
        assert g(x) <= bound + 8.0 * math.ulp(x)


def test_loop_gauge_at_root_bound():
    g = loop_gauge(10.0)
    for n in (1, 2, 7, 50):
        r = osc.loop_root(n)
        gap = r - osc.loop_root(n + 1)
        assert g(r) == pytest.approx(0.5 * min(r, gap), rel=1e-12)


def test_loop_gauge_caps_at_eps_scale():
    g = loop_gauge(1e-3)
    xs = np.linspace(0.0, 1.0, 1000)
    assert np.all(g.eval_many(xs) <= 1e-3)


def test_cousin_of_loop_gauge_is_fine_and_tag_zero_first():
    g = loop_gauge(0.05)
    p = cousin_partition(Interval(0.0, 1.0), g)
    assert is_delta_fine(p, g)
    assert p.tags[0] == 0.0
    assert np.count_nonzero(p.tags == 0.0) == 1


def test_family_partitions_have_exactly_one_zero_tag():
    fam = osc.loop_gauge_family()
    g = fam.at(1e-2)
    p = cousin_partition(Interval(0.0, 1.0), g)
    assert is_delta_fine(p, g)
    assert np.count_nonzero(p.tags == 0.0) == 1
    for seed in range(3):
        q = random_delta_fine_partition(Interval(0.0, 1.0), g, seed=seed)
        assert is_delta_fine(q, g)
        assert np.count_nonzero(q.tags == 0.0) == 1


def test_family_gauge_is_monotone_in_eps():
    fam = osc.loop_gauge_family()
    xs = np.linspace(0.0, 1.0, 2000)
    d_fine = fam.at(1e-4).eval_many(xs)
    d_coarse = fam.at(1e-2).eval_many(xs)
    assert np.all(d_fine <= d_coarse)


def test_truncated_family_takes_only_positive_integer_indices():
    # the same index rule as f_j: no gauge for a jump at 1/1.5, and a typed
    # error where the index leaves the float range
    for j in (1.5, 10**400):
        with pytest.raises(ValueError, match="positive integers"):
            osc.truncated_gauge_family(j)


def test_truncated_family_gauge_monotone_and_positive():
    fam = osc.truncated_gauge_family(7)
    xs = np.linspace(0.0, 1.0, 2000)
    d_fine = fam.at(1e-4).eval_many(xs)
    d_coarse = fam.at(1e-2).eval_many(xs)
    assert np.all(d_fine > 0)
    assert np.all(d_fine <= d_coarse)


# --------------------------------------------------------- exact integrals

def test_exact_integrals():
    assert osc.exact_integral_f() == math.sin(1.0)
    assert osc.exact_integral_fj(2) == pytest.approx(1.0306716086348786, abs=1e-15)
    for j in (2, 3, 10, 100, 1000):
        assert abs(osc.exact_integral_fj(j) - SIN1) <= 1.0 / j**2


def test_headline_integral_of_f():
    est = gauge_integrate(
        osc.f, osc.loop_gauge_family(), Interval(0.0, 1.0), tol=1e-2, trials=2, seed=9
    )
    assert est.converged
    assert est.value == pytest.approx(SIN1, abs=1e-2)



def integral_from_root(n):
    """Closed form of the integral of f over [r_n, 1]: F(r_n) = (-1)**n r_n**2."""
    return SIN1 - (-1) ** n * loop_root(n) ** 2


def test_quad_loop_by_loop_matches_the_closed_form_from_each_root():
    # an oracle that shares no code with the gauge machinery: scipy's
    # adaptive quadrature on one smooth loop [r_n, r_(n-1)] at a time
    from scipy.integrate import quad

    roots = [1.0, *(loop_root(n) for n in range(1001))]
    total = 0.0
    for n in range(1001):
        total += quad(osc.f, roots[n + 1], roots[n], epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        assert total == pytest.approx(integral_from_root(n), abs=1e-13), n


@pytest.mark.parametrize("n", [3, 30, 300])
def test_gauge_integral_from_a_root_matches_the_closed_form(n):
    tol = 1e-3
    est = gauge_integrate(osc.f, osc.loop_gauge_family(), Interval(loop_root(n), 1.0), tol)
    assert est.converged
    assert est.value == pytest.approx(integral_from_root(n), abs=tol)

# ---------------------------------------------------------------- figures

def test_figure_samples_shapes_and_values():
    rows = osc.figure_samples("fig4", 0.01, 1.0, 100)
    assert len(rows) == 100
    xs = [x for x, _ in rows]
    assert xs[0] == 0.01 and xs[-1] == 1.0
    assert rows[-1][1] == pytest.approx(SIN1, abs=1e-15)  # F(1) = sin 1


def test_figure_identity_fig3_is_fig1_minus_fig2():
    r1 = osc.figure_samples("fig1", 0.02, 0.9, 257)
    r2 = osc.figure_samples("fig2", 0.02, 0.9, 257)
    r3 = osc.figure_samples("fig3", 0.02, 0.9, 257)
    for (x1, y1), (x2, y2), (x3, y3) in zip(r1, r2, r3):
        assert x1 == x2 == x3
        assert y3 == y1 - y2  # bitwise: same expression tree


def test_figure_fig1_bounded_by_2x():
    rows = osc.figure_samples(1, 0.001, 1.0, 500)
    for x, y in rows:
        assert abs(y) <= 2.0 * x * (1 + 1e-15)


def test_figure_samples_rejects_bad_ranges():
    with pytest.raises(DomainError):
        osc.figure_samples("fig1", 0.0, 1.0, 10)
    with pytest.raises(DomainError):
        osc.figure_samples("fig1", 0.5, 0.4, 10)
    with pytest.raises(DomainError):
        osc.figure_samples("fig1", 0.1, 1.2, 10)
    with pytest.raises(DomainError):
        osc.figure_samples("fig1", 0.1, 1.0, 1)
    with pytest.raises(DomainError):
        osc.figure_samples("fig9", 0.1, 1.0, 10)


@pytest.mark.parametrize("x_min, x_max", [("0.1", 0.5), (0.1, "0.5"), (None, 0.5), (0.1, 10**400)])
def test_figure_samples_rejects_a_range_that_is_not_real_or_past_the_float_range(x_min, x_max):
    # a typed error, not a TypeError from `<` or an OverflowError
    with pytest.raises(DomainError, match="need 0 < x_min < x_max <= 1"):
        osc.figure_samples(1, x_min, x_max, 3)


def test_f_j_rejects_a_ragged_index_list():
    # not numpy's "inhomogeneous shape" ValueError
    with pytest.raises(InvalidIndex, match="ragged"):
        osc.f_j([[1], [2, 3]], 0.5)


@pytest.mark.parametrize("count", [2.5, "3", None])
def test_figure_samples_rejects_a_count_that_is_not_an_integer(count):
    # a typed error, not numpy's TypeError from linspace or one from `<`
    with pytest.raises(DomainError, match=r"count must be an integer >= 2, got " + re.escape(repr(count))):
        osc.figure_samples("fig1", 0.1, 0.9, count)
    assert len(osc.figure_samples("fig1", 0.1, 0.9, np.int64(3))) == 3
