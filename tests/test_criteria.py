import math

import numpy as np
import pytest

from gaugequad import (
    Gauge,
    GaugeFamily,
    IndexBelowQ,
    IndexSelector,
    IntegrandFamily,
    Interval,
    LengthMismatch,
    check_criterion1,
    check_criterion2,
    check_criterion3,
    cousin_partition,
    random_delta_fine_partition,
    riemann_sum,
    smooth_gauge_family,
    variable_index_sum,
)
from gaugequad import oscillator as osc

from conftest import const_gauge

SIN1 = math.sin(1.0)
UNIT = Interval(0.0, 1.0)


def paper_family():
    return osc.integrand_family()


def small_partition(seed=3):
    return random_delta_fine_partition(
        UNIT, Gauge(lambda x: 0.02 + x / 8.0), seed=seed
    )


# ----------------------------------------------------- variable_index_sum

def test_fixed_indices_reduce_to_riemann_sum_bitwise():
    fam = paper_family()
    p = small_partition()
    for j in (2, 5, 17):
        idx = np.full(len(p), j)
        lhs = variable_index_sum(fam, idx, p)
        rhs = riemann_sum(lambda x, _j=j: osc.f_j(_j, x), p)
        assert lhs == rhs


def test_generic_grouping_path_matches_vectorized_shortcut():
    fam = paper_family()
    generic = IntegrandFamily(member=fam.member, limit=fam.limit, domain=fam.domain)
    p = small_partition(seed=11)
    rng = np.random.default_rng(0)
    sel = osc.index_selector()
    idx = sel.threshold(p.tags) + rng.integers(1, 6, size=len(p))
    assert variable_index_sum(fam, idx, p) == variable_index_sum(generic, idx, p)


def test_admissible_indices_give_f_sum_bitwise():
    # beyond ceil(1/x) the truncations agree with the limit exactly, so
    # every admissible variable-index sum IS the f-sum
    fam = paper_family()
    sel = osc.index_selector()
    rng = np.random.default_rng(42)
    for seed in range(5):
        p = small_partition(seed=seed)
        thresholds = sel.threshold(p.tags)
        target = riemann_sum(osc.f, p)
        for _ in range(20):
            idx = thresholds + rng.integers(1, 50, size=len(p))
            assert variable_index_sum(fam, idx, p) == target


def test_variable_index_sum_validates_lengths_and_values():
    fam = paper_family()
    p = small_partition()
    with pytest.raises(LengthMismatch):
        variable_index_sum(fam, np.ones(len(p) + 1, dtype=int), p)
    with pytest.raises(ValueError):
        variable_index_sum(fam, np.zeros(len(p), dtype=int), p)
    # both evaluation paths must reject a fractional index, which they
    # would otherwise truncate at different points (1/2.5 against 1/2)
    generic = IntegrandFamily(member=fam.member, limit=fam.limit, domain=fam.domain)
    for family in (fam, generic):
        for bad in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                variable_index_sum(family, np.full(len(p), bad), p)
        assert variable_index_sum(family, np.full(len(p), 5.0), p) == (
            variable_index_sum(family, np.full(len(p), 5), p)
        )


# ------------------------------------------------------- check_criterion1

def test_criterion1_passes_on_the_paper_family():
    rep = check_criterion1(
        paper_family(),
        osc.loop_gauge_family(),
        osc.index_selector(),
        alpha1=SIN1,
        eps=1e-2,
        trials=4,
        index_headroom=10,
        seed=0,
        index_draws=3,
    )
    assert rep.passed
    assert rep.violations == 0
    assert rep.trials == 12
    assert rep.worst_deviation < 1e-2


def test_criterion1_detects_shifted_center():
    eps = 1e-2
    rep = check_criterion1(
        paper_family(),
        osc.loop_gauge_family(),
        osc.index_selector(),
        alpha1=SIN1 + 10.0 * eps,
        eps=eps,
        trials=3,
        index_headroom=5,
        seed=1,
    )
    assert not rep.passed
    assert rep.violations == rep.trials
    assert rep.worst_deviation >= 9.0 * eps


def test_criterion1_dominated_family():
    # f_j(x) = x + x/j converges to x dominated by 2x; with thresholds
    # ceil(1/eps) the index term contributes at most 1/j <= eps/2 in sum
    eps = 1e-3
    fam = IntegrandFamily(
        member=lambda j: (lambda x, _j=j: np.asarray(x, float) * (1.0 + 1.0 / _j)),
        limit=lambda x: np.asarray(x, float),
        domain=UNIT,
        member_at=lambda j, x: np.asarray(x, float)
        * (1.0 + 1.0 / np.asarray(j, float)),
    )
    sel = IndexSelector(lambda x: np.full_like(np.asarray(x, float), math.ceil(1 / eps)).astype(np.int64))
    rep = check_criterion1(
        fam,
        smooth_gauge_family(0.25),
        sel,
        alpha1=0.5,
        eps=eps,
        trials=4,
        index_headroom=100,
        seed=5,
    )
    assert rep.passed, rep


def test_criterion1_is_deterministic():
    kwargs = dict(
        alpha1=SIN1, eps=1e-2, trials=3, index_headroom=7, seed=21, index_draws=2
    )
    r1 = check_criterion1(
        paper_family(), osc.loop_gauge_family(), osc.index_selector(), **kwargs
    )
    r2 = check_criterion1(
        paper_family(), osc.loop_gauge_family(), osc.index_selector(), **kwargs
    )
    assert r1 == r2


# ------------------------------------------------------- check_criterion2

def test_criterion2_passes_on_the_paper_family():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))  # 1/j^2 <= eps margin beyond q
    rep = check_criterion2(
        paper_family(),
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=SIN1,
        eps=eps,
        q=q,
        j_list=[q + 1, 2 * q, 10 * q],
        trials=2,
        seed=0,
    )
    assert rep.passed
    assert rep.violations == 0
    assert rep.worst_deviation < 2.0 * eps


def test_criterion2_rejects_wrong_center():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))
    rep = check_criterion2(
        paper_family(),
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=0.0,
        eps=eps,
        q=q,
        j_list=[q + 1],
        trials=2,
        seed=0,
    )
    assert not rep.passed
    assert rep.violations == rep.trials


def test_criterion2_constant_family():
    fam = IntegrandFamily(
        member=lambda j: (lambda x: np.full_like(np.asarray(x, float), 2.5)),
        limit=lambda x: np.full_like(np.asarray(x, float), 2.5),
        domain=UNIT,
    )
    rep = check_criterion2(
        fam,
        gauge_for=lambda j: const_gauge(0.05),
        alpha2=2.5,
        eps=1e-9,
        q=1,
        j_list=[2, 5],
        trials=2,
        seed=3,
    )
    assert rep.passed
    assert rep.worst_deviation <= 1e-12  # partition sums telescope exactly


def test_criterion2_monotone_unbounded_limit_family():
    # f_j(x) = min(j, 1/sqrt(x)) increases to 1/sqrt(x), integrable with
    # integral 2 though no dominating integrable bound exists;
    # closed form: integral of f_j = 2 - 1/j (split at 1/j^2)
    def member(j):
        def fj(x):
            arr = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return np.minimum(float(j), 1.0 / np.sqrt(arr))

        return fj

    fam = IntegrandFamily(
        member=member,
        limit=member(10**9),
        domain=UNIT,
    )
    eps = 0.05
    q = math.ceil(1.0 / eps)  # |2 - integral of f_j| = 1/j < eps for j > q

    def gauge_for(j):
        b = (1.6 * eps) ** (2.0 / 3.0)
        jump = 1.0 / (j * j)

        def delta(x, _b=b, _jump=jump):
            arr = np.asarray(x, dtype=float)
            return _b * np.maximum(arr, _jump) ** 1.5

        return Gauge(delta)

    rep = check_criterion2(
        fam,
        gauge_for=gauge_for,
        alpha2=2.0,
        eps=eps,
        q=q,
        j_list=[q + 1, 2 * q],
        trials=2,
        seed=7,
    )
    assert rep.passed, rep


def test_criterion2_rejects_index_at_or_below_q():
    with pytest.raises(IndexBelowQ):
        check_criterion2(
            paper_family(),
            gauge_for=lambda j: const_gauge(0.1),
            alpha2=SIN1,
            eps=1e-2,
            q=10,
            j_list=[10],
            trials=2,
            seed=0,
        )


def test_criterion2_is_deterministic():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))
    kwargs = dict(
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=SIN1,
        eps=eps,
        q=q,
        j_list=[q + 1, 2 * q],
        trials=2,
        seed=17,
    )
    assert check_criterion2(paper_family(), **kwargs) == check_criterion2(
        paper_family(), **kwargs
    )


def criterion1_at(eps):
    return check_criterion1(
        paper_family(), smooth_gauge_family(), osc.index_selector(),
        alpha1=100.0, eps=eps, trials=1, index_headroom=1, seed=0,
    )


def criterion2_at(eps):
    return check_criterion2(
        paper_family(), gauge_for=lambda j: const_gauge(0.1),
        alpha2=100.0, eps=eps, q=1, j_list=[2], trials=1, seed=0,
    )


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [criterion1_at, criterion2_at])
def test_criteria_reject_nonfinite_or_nonpositive_eps(check, eps):
    # a nan band compares false, so every sum against alpha 100 would pass
    with pytest.raises(ValueError):
        check(eps)


# ------------------------------------------------------- check_criterion3

def test_criterion3_cases():
    assert check_criterion3(SIN1, SIN1, 1e-12)
    assert not check_criterion3(SIN1, 0.8, 1e-3)
    assert check_criterion3(0.0, 0.0, 0.0)
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_criterion3(0.0, 0.0, bad)


# ------------------------------------------------- per-point fallback

def scalar_only(fn):
    """fn restricted to scalars: array arguments raise TypeError."""

    def scalar(x):
        if np.ndim(x):
            raise TypeError("scalar only")
        return fn(x)

    return scalar


def build_with_gauge(wrap):
    p = cousin_partition(UNIT, Gauge(wrap(lambda x: 0.02 + x / 8.0)))
    return p.tags.tolist(), p.lefts.tolist(), p.rights.tolist()


def sum_with_member(wrap):
    fam = paper_family()
    generic = IntegrandFamily(
        member=lambda j: wrap(fam.member(j)), limit=fam.limit, domain=fam.domain
    )
    p = small_partition(seed=5)
    return variable_index_sum(generic, 1 + np.arange(len(p)) % 7, p)


def check_with_threshold(wrap):
    sel = IndexSelector(wrap(osc.index_selector().threshold))
    return check_criterion1(
        paper_family(), osc.loop_gauge_family(), sel,
        alpha1=SIN1, eps=1e-2, trials=2, index_headroom=5, seed=0,
    )


@pytest.mark.parametrize(
    "run", [build_with_gauge, sum_with_member, check_with_threshold]
)
def test_scalar_only_callable_matches_vectorized_bitwise(run):
    assert run(scalar_only) == run(lambda fn: fn)
