"""The two hand proofs of the oscillator module, checked at 50 digits.

`_tent_delta` computes its bracket index in closed form and never corrects
it; its docstring proves that the result still equals the rule on the true
bracket among the float roots.  `loop_gauge_family` skips the tent wherever
its phase certificate passes; its docstring proves that every passing point
lies at least 2 eps x^3 from each root.  Here mpmath finds brackets and
exact roots at 50 digits, with no reliance on either proof.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from gaugequad import oscillator as osc

DIGITS = 50


def _float_root(n: int) -> float:
    """R(n) = loop_root(n), and R(0) = +inf, as `_tent_delta` takes it."""
    return math.inf if n == 0 else osc.loop_root(n)


def _exact_phase(x: float):
    """Q = 1/(pi x^2) - 1/2 at DIGITS digits: the exact roots sit at integer Q."""
    with mp.workdps(DIGITS):
        return 1 / (mp.pi * mp.mpf(x) ** 2) - mp.mpf(1) / 2


def _exact_root(n: int):
    with mp.workdps(DIGITS):
        return mp.sqrt(2 / ((2 * mp.mpf(n) + 1) * mp.pi))


def exact_tent(x: float, eps_scale: float) -> float:
    """The tent rule on x's true bracket among the float roots, for x > 0.

    The bracket R(k + 1) <= x <= R(k) starts from the exact index
    floor(Q) and is moved one index step toward x if it misses.  Inside
    it: half the distance to the nearer float root; at a root float R(n):
    half the gap down to R(n + 1); then the 8-ulp floor and the cap.
    """
    k = max(int(mp.floor(_exact_phase(x))), 0)
    if x > _float_root(k):
        k -= 1
    elif x < _float_root(k + 1):
        k += 1
    hi, lo = _float_root(k), _float_root(k + 1)
    assert lo <= x <= hi, (x, k)
    with mp.workdps(DIGITS):
        if x in (hi, lo):
            n = k if x == hi else k + 1
            s = (mp.mpf(x) - mp.mpf(_float_root(n + 1))) / 2
        else:
            s = min(mp.mpf(x) - mp.mpf(lo), mp.mpf(hi) - mp.mpf(x)) / 2
        s = float(s)
    return min(eps_scale, max(s, 8.0 * float(np.spacing(x))))


def _ulps_around(x: float, count: int) -> list[float]:
    """x and its first `count` float neighbours on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _assert_tent_is_exact(xs):
    xs = np.asarray(xs, dtype=float)
    got = osc._tent_delta(xs, 1.0)
    want = np.array([exact_tent(x, 1.0) for x in xs.tolist()])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, list(zip(xs[bad][:5], got[bad][:5], want[bad][:5]))


# ------------------------------------------------- _tent_delta's bracket

#: Roots where the proof changes regime: N_b = 2**49, where every bracket
#: value falls below the floor, and N_a ~ 9.0e14, where root floats may miss.
ROOT_INDICES = [1, 2, 3, 10, 1000, 10**6, 2**49 - 1, 2**49, 2**49 + 1, 9 * 10**14, 10**15]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(min_value=3e-8, max_value=1.0))
@example(osc.loop_root(1))
@example(1.0)
def test_tent_delta_equals_the_exact_bracket_rule(x):
    _assert_tent_is_exact([x])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=1, max_value=10**15), st.integers(min_value=-3, max_value=3))
def test_tent_delta_equals_the_exact_bracket_rule_near_root_floats(n, ulps):
    x = osc.loop_root(n)
    x = x + ulps * float(np.spacing(x))
    _assert_tent_is_exact([x])


@pytest.mark.parametrize("n", ROOT_INDICES)
def test_tent_delta_equals_the_exact_bracket_rule_at_named_roots(n):
    _assert_tent_is_exact(_ulps_around(osc.loop_root(n), 3))


def test_tent_delta_equals_the_exact_bracket_rule_on_a_log_uniform_sweep():
    rng = np.random.default_rng(11)
    _assert_tent_is_exact(np.exp(rng.uniform(math.log(3e-8), 0.0, 4_000)))


# ------------------------------------------------ the phase certificate

CERTIFICATE_EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]


def exact_half_gap(x: float):
    """Half the distance from x to the nearer exact root, at DIGITS digits."""
    k = int(mp.floor(_exact_phase(x)))
    with mp.workdps(DIGITS):
        X = mp.mpf(x)
        return min(X - _exact_root(k + 1), _exact_root(k) - X) / 2


def _certified_points(rng, eps):
    """The points that pass the certificate among 3,000 within 12 eps in
    phase of a root, where its margin binds, and 500 log-uniform ones."""
    top = min(1e9, eps * 2.0**50)
    n = np.floor(np.exp(rng.uniform(0.0, math.log(top), 3_000)))
    q = n + rng.uniform(-12.0, 12.0, n.size) * eps
    xs = np.concatenate([
        np.sqrt(1.0 / (math.pi * (q + 0.5))),
        np.exp(rng.uniform(math.log(1e-7), 0.0, 500)),
    ])
    return np.delete(xs, osc._uncertified(xs, eps))


@pytest.mark.parametrize("eps", CERTIFICATE_EPS)
def test_certified_points_lie_two_eps_x_cubed_from_every_exact_root(eps):
    xs = _certified_points(np.random.default_rng(29), eps)
    assert xs.size > 1_000
    with mp.workdps(DIGITS):
        worst = min(exact_half_gap(x) / (2 * mp.mpf(eps) * mp.mpf(x) ** 3) for x in xs.tolist())
    assert worst >= 1, float(worst)


@pytest.mark.parametrize("k", [1, 100, 10**4])
def test_a_margin_of_two_eps_would_certify_a_point_too_near_a_root(monkeypatch, k):
    eps = 1e-3
    x = math.sqrt(1.0 / (math.pi * (k + 2.2 * eps + 0.5)))  # 2.2 eps in phase from root k
    xs = np.array([x])
    with mp.workdps(DIGITS):
        c = 2 * mp.mpf(eps) * mp.mpf(x) ** 3
        tent_ratio = exact_half_gap(x) / c
    true_value = osc.loop_gauge_family().at(eps).delta(xs)[0]
    assert osc._uncertified(xs, eps).tolist() == [0]  # the real certificate rejects x

    monkeypatch.setattr(osc, "_PHASE_MARGIN", 2.0)
    assert osc._uncertified(xs, eps).tolist() == []  # the mutant passes it
    mutant_value = osc.loop_gauge_family().at(eps).delta(xs)[0]
    # so the mutant hands x the value 2 eps x^3, past x's exact tent
    assert 0.85 < tent_ratio < 0.87
    assert mutant_value == pytest.approx(1.16 * true_value, rel=5e-3)
    assert mutant_value > exact_half_gap(x)
