import math
import re
import time
import weakref

import numpy as np
import pytest

from gaugequad import (
    Gauge,
    GaugeFamily,
    IndexSelector,
    IntegrandFamily,
    Interval,
    InvalidIndex,
    InvalidTolerance,
    LengthMismatch,
    check_criterion1,
    check_criterion2,
    check_criterion3,
    cousin_partition,
    gauge_integrate,
    random_delta_fine_partition,
    riemann_sum,
    smooth_gauge_family,
    variable_index_sum,
)
from gaugequad import criteria, integrator
from gaugequad import oscillator as osc

from conftest import (
    BLOCK_EDGES,
    block_sum_reference,
    const_gauge,
    partition_of_size,
    scalar_only,
)

SIN1 = math.sin(1.0)
UNIT = Interval(0.0, 1.0)


def paper_family():
    return osc.integrand_family()


# Negative controls: families on which a checker must report a failure.

def bump_member(j, x):
    """g_j = j on (0, 1/j] and 0 elsewhere: every integral is 1, the limit is 0."""
    j = np.asarray(j, dtype=float)
    return np.where((x > 0.0) & (x <= 1.0 / j), j, 0.0)


def bump_family():
    return IntegrandFamily(member_at=bump_member, domain=UNIT)


def bump_selector():
    """Threshold ceil(1/x) + 1, and 1 at 0: beyond it g_j(x) = 0."""

    def threshold(x):
        positive = x > 0.0
        return np.where(positive, np.ceil(1.0 / np.where(positive, x, 1.0)) + 1.0, 1.0)

    return IndexSelector(threshold)


def alternating_family():
    """f_j = (-1)**j: the fixed-index sums never settle."""
    return IntegrandFamily(
        member_at=lambda j, x: np.full(np.shape(x), (-1.0) ** j), domain=UNIT
    )


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


def per_point_sum(idx, p):
    """The oracle: f_j(j_i, t_i) one point at a time, summed by the block rule."""
    values = [osc.f_j(int(j), float(t)) for j, t in zip(idx, p.tags)]
    return block_sum_reference(p, np.array(values))


def test_mixed_indices_match_per_point_oracle_bitwise():
    # indices below and above ceil(1/tag), so some tags truncate to 0
    fam = paper_family()
    rng = np.random.default_rng(0)
    for seed in (11, 12):
        p = small_partition(seed=seed)
        idx = rng.integers(1, 40, size=len(p))
        truncated = osc.f_j(idx, p.tags) == 0.0
        assert truncated.any() and not truncated.all()
        assert variable_index_sum(fam, idx, p) == per_point_sum(idx, p)


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


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_variable_index_sum_follows_the_block_rule_bitwise(n):
    p = partition_of_size(n)
    idx = np.random.default_rng(1).integers(1, 40, size=n)
    expected = block_sum_reference(p, osc.f_j(idx, p.tags))
    assert variable_index_sum(paper_family(), idx, p) == expected


def test_variable_index_sum_validates_lengths_and_values():
    fam = paper_family()
    p = small_partition()
    with pytest.raises(LengthMismatch):
        variable_index_sum(fam, np.ones(len(p) + 1, dtype=int), p)
    with pytest.raises(LengthMismatch):
        variable_index_sum(fam, np.ones((len(p), 1), dtype=int), p)
    with pytest.raises(InvalidIndex):
        variable_index_sum(fam, np.zeros(len(p), dtype=int), p)
    for bad in (2.5, np.nan, np.inf, 10**400, "3", 1j):
        with pytest.raises(InvalidIndex, match="positive integers"):
            variable_index_sum(fam, np.full(len(p), bad), p)
    # beside an int past uint64, the list becomes an object array
    for bad in (["3", 10**20], [1j, 10**20]):
        with pytest.raises(InvalidIndex, match="positive integers"):
            variable_index_sum(fam, bad + [1] * (len(p) - 2), p)
    assert variable_index_sum(fam, np.full(len(p), 5.0), p) == (
        variable_index_sum(fam, np.full(len(p), 5), p)
    )


# ------------------------------------------------------- check_criterion1

def test_criterion1_passes_on_the_paper_family():
    rep = check_criterion1(
        paper_family(),
        osc.loop_gauge_family(),
        osc.index_selector(),
        alpha1=SIN1,
        eps=1e-2,
        trials=12,
        seed=0,
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
        seed=1,
    )
    assert not rep.passed
    assert rep.violations == rep.trials
    assert rep.worst_deviation >= 9.0 * eps


def test_criterion1_dominated_family(monkeypatch):
    # f_j(x) = x + x/j converges to x dominated by 2x; with thresholds
    # ceil(1/eps) the index term contributes at most 1/j <= eps/2 in sum
    eps = 1e-3
    fam = IntegrandFamily(
        member_at=lambda j, x: np.asarray(x, float) * (1.0 + 1.0 / np.asarray(j, float)),
        domain=UNIT,
    )
    sel = IndexSelector(lambda x: np.full_like(np.asarray(x, float), math.ceil(1 / eps)).astype(np.int64))
    # a constant gauge of 0.25 eps^(2/3)
    gf = GaugeFamily(lambda e: const_gauge(0.25 * e ** (2.0 / 3.0)))
    monkeypatch.setattr(criteria, "_INDEX_HEADROOM", 100)
    rep = check_criterion1(
        fam,
        gf,
        sel,
        alpha1=0.5,
        eps=eps,
        trials=4,
        seed=5,
    )
    assert rep.passed, rep


def test_criterion1_is_deterministic():
    kwargs = dict(alpha1=SIN1, eps=1e-2, trials=3, seed=21)
    r1 = check_criterion1(
        paper_family(), osc.loop_gauge_family(), osc.index_selector(), **kwargs
    )
    r2 = check_criterion1(
        paper_family(), osc.loop_gauge_family(), osc.index_selector(), **kwargs
    )
    assert r1 == r2


@pytest.mark.parametrize("headroom", [1, 3])
def test_criterion1_draws_each_index_within_the_headroom(monkeypatch, headroom):
    sel = osc.index_selector()
    above = []

    def recording(fam, idx, p):
        above.append(idx - criteria._thresholds(sel, p.tags))
        return variable_index_sum(fam, idx, p)

    monkeypatch.setattr(criteria, "variable_index_sum", recording)
    monkeypatch.setattr(criteria, "_INDEX_HEADROOM", headroom)
    check_criterion1(
        paper_family(), osc.loop_gauge_family(), sel, alpha1=SIN1, eps=1e-2, trials=2, seed=0
    )
    assert set(np.concatenate(above).tolist()) == set(range(1, headroom + 1))


def test_criterion1_worst_deviation_follows_every_drawn_index():
    # With f_j(x) = j, unlike the paper's family, every threshold and every
    # index draw moves the sum, so the report pins criterion 1's index path:
    # thresholds plus uniform draws from the seed [seed, 2, i], on the
    # partition drawn from [seed, 1, i].
    fam = IntegrandFamily(lambda j, x: np.asarray(j, dtype=float), UNIT)
    gf, sel = osc.loop_gauge_family(), osc.index_selector()
    seed, eps, trials = 4, 1e-2, 3
    rep = check_criterion1(fam, gf, sel, alpha1=SIN1, eps=eps, trials=trials, seed=seed)
    devs = []
    for i in range(trials):
        p = random_delta_fine_partition(UNIT, gf.at(eps), [seed, 1, i])
        draws = np.random.default_rng([seed, 2, i]).integers(1, 11, len(p))
        idx = criteria._thresholds(sel, p.tags) + draws
        devs.append(abs(SIN1 - block_sum_reference(p, idx.astype(float))))
    assert rep.trials == trials
    assert rep.worst_deviation == max(devs)


@pytest.mark.threads
def test_thresholds_are_the_ceiling_of_one_over_each_tag_bitwise():
    p = random_delta_fine_partition(UNIT, osc.loop_gauge_family().at(1e-2), [0, 1, 0])
    t = p.tags
    expected = np.ceil(1 / np.where(t > 0, t, 1)).astype(np.int64)
    threshold = osc.index_selector().threshold
    for sel in (IndexSelector(threshold), IndexSelector(scalar_only(threshold))):
        got = criteria._thresholds(sel, t)
        assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()


@pytest.mark.threads
def test_thresholds_are_checked_in_the_selectors_dtype_then_cast_once():
    tags = np.linspace(0.1, 0.9, 5)
    q = np.arange(1, 6, dtype=np.int64)
    assert criteria._thresholds(IndexSelector(lambda x: q), tags) is q  # no copy
    for result in (q + 0.0, q.astype(np.uint64), q.tolist(), np.ones(5, dtype=bool)):
        got = criteria._thresholds(IndexSelector(lambda x, _r=result: _r), tags)
        assert got.dtype == np.int64 and got.tolist() == np.asarray(result, np.int64).tolist()


# ------------------------------------------------------- check_criterion2

def test_criterion2_passes_on_the_paper_family():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))  # 1/j^2 <= eps margin beyond q
    rep = check_criterion2(
        paper_family(),
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=SIN1,
        eps=eps,
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
        j_list=[q + 1],
        trials=2,
        seed=0,
    )
    assert not rep.passed
    assert rep.violations == rep.trials


def test_criterion2_constant_family():
    fam = IntegrandFamily(
        member_at=lambda j, x: np.full_like(np.asarray(x, float), 2.5), domain=UNIT
    )
    rep = check_criterion2(
        fam,
        gauge_for=lambda j: const_gauge(0.05),
        alpha2=2.5,
        eps=1e-9,
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
    def member_at(j, x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.minimum(np.asarray(j, float), 1.0 / np.sqrt(arr))

    fam = IntegrandFamily(member_at=member_at, domain=UNIT)
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
        j_list=[q + 1, 2 * q],
        trials=2,
        seed=7,
    )
    assert rep.passed, rep


@pytest.mark.parametrize("j", [2.5, math.nan, math.inf])
def test_criterion2_rejects_non_integral_or_non_finite_index(j):
    # 2.5 would run as int(2.5) == 2
    with pytest.raises(InvalidIndex, match="positive integers"):
        check_criterion2(
            paper_family(),
            gauge_for=lambda j: const_gauge(0.1),
            alpha2=SIN1,
            eps=1e-2,
            j_list=[j],
            trials=2,
            seed=0,
        )


def test_criterion2_rejects_empty_j_list():
    # no index means no sampled sum: a report with trials=0 would pass
    with pytest.raises(ValueError, match="non-empty j_list"):
        check_criterion2(
            paper_family(),
            gauge_for=lambda j: const_gauge(0.1),
            alpha2=123.0,
            eps=1e-2,
            j_list=[],
            trials=2,
            seed=0,
        )


def _criterion1_builds():
    rep = check_criterion1(
        paper_family(),
        osc.loop_gauge_family(),
        osc.index_selector(),
        alpha1=SIN1,
        eps=1e-2,
        trials=3,
        seed=0,
    )
    return rep.trials


def _criterion2_builds():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))
    rep = check_criterion2(
        paper_family(),
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=SIN1,
        eps=eps,
        j_list=[q + 1, 2 * q],
        trials=3,
        seed=0,
    )
    assert rep.trials == 8
    return rep.trials


def _gauge_integrate_builds():
    est = gauge_integrate(lambda x: x**3, smooth_gauge_family(), UNIT, 1e-3, trials=3)
    assert est.converged
    return 4  # one level: the cousin partition and three trials


def _held_per_build(monkeypatch, run):
    """The number of built partitions still alive as each build of run() starts."""
    # TaggedPartition has no __weakref__ slot, so its tags array stands in
    live = []
    held = []

    def tracked(build):
        def wrapped(*args, **kwargs):
            held.append(sum(ref() is not None for ref in live))
            p = build(*args, **kwargs)
            live.append(weakref.ref(p.tags))
            return p

        return wrapped

    # every sampling loop builds through the driver's integrator bindings
    monkeypatch.setattr(integrator, "cousin_partition", tracked(integrator.cousin_partition))
    monkeypatch.setattr(integrator, "_random_partition", tracked(integrator._random_partition))
    assert run() == len(held)
    return held


@pytest.mark.threads
def test_criterion2_holds_one_finished_partition_at_a_time(monkeypatch):
    assert max(_held_per_build(monkeypatch, _criterion2_builds)) <= 1


@pytest.mark.threads
@pytest.mark.parametrize(
    "run", [_criterion1_builds, _gauge_integrate_builds], ids=["criterion1", "gauge_integrate"]
)
def test_sampling_loop_holds_one_finished_partition_at_a_time(monkeypatch, run):
    assert max(_held_per_build(monkeypatch, run)) <= 1


@pytest.mark.threads
@pytest.mark.parametrize(
    "run",
    [_criterion1_builds, _criterion2_builds, _gauge_integrate_builds],
    ids=["criterion1", "criterion2", "gauge_integrate"],
)
def test_summed_partition_is_freed_while_the_next_one_builds(monkeypatch, run):
    # the sum of p_k runs alongside the build of p_{k+1}; once it ends, no
    # reference may keep p_k alive until that build is done
    live = []
    freed = []

    def tracked(build):
        def wrapped(*args, **kwargs):
            if live:
                deadline = time.monotonic() + 5
                while live[-1]() is not None and time.monotonic() < deadline:
                    time.sleep(0.001)
                freed.append(live[-1]() is None)
            p = build(*args, **kwargs)
            live.append(weakref.ref(p.tags))
            return p

        return wrapped

    monkeypatch.setattr(integrator, "cousin_partition", tracked(integrator.cousin_partition))
    monkeypatch.setattr(integrator, "_random_partition", tracked(integrator._random_partition))
    assert run() == len(freed) + 1
    assert all(freed)


def _seeded_entry_points():
    fam, sel = paper_family(), osc.index_selector()
    return {
        "gauge_integrate": lambda s: gauge_integrate(
            lambda x: x, smooth_gauge_family(), UNIT, 1e-2, seed=s
        ),
        "criterion1": lambda s: check_criterion1(
            fam, osc.loop_gauge_family(), sel, alpha1=SIN1, eps=1e-2, trials=2, seed=s,
        ),
        "criterion2": lambda s: check_criterion2(
            fam, gauge_for=lambda j: const_gauge(0.1), alpha2=SIN1, eps=1e-2,
            j_list=[2, 3], trials=2, seed=s,
        ),
        "random_delta_fine_partition": lambda s: random_delta_fine_partition(
            UNIT, const_gauge(0.1), s
        ),
    }


@pytest.mark.parametrize(
    "entry, seed",
    [(entry, -1) for entry in _seeded_entry_points()]
    + [("random_delta_fine_partition", [0, -1])]
    + [(entry, s) for s in (1.5, None, [0, 2.5]) for entry in _seeded_entry_points()],
)
def test_negative_seed_raises_before_any_build(monkeypatch, entry, seed):
    from gaugequad import partition

    builds = []
    build = partition._build_fine
    monkeypatch.setattr(partition, "_build_fine", lambda *a: builds.append(a) or build(*a))
    call = _seeded_entry_points()[entry]
    with pytest.raises(ValueError, match=r"seed .*" + re.escape(repr(seed))):
        call(seed)
    assert builds == []
    call(0)  # the same call with a valid seed builds
    assert builds


def _trials_entry_points():
    fam, sel = paper_family(), osc.index_selector()
    return {
        "gauge_integrate": lambda n: gauge_integrate(
            lambda x: x, smooth_gauge_family(), UNIT, 1e-2, trials=n
        ),
        "criterion1": lambda n: check_criterion1(
            fam, osc.loop_gauge_family(), sel, alpha1=SIN1, eps=1e-2, trials=n, seed=0,
        ),
        "criterion2": lambda n: check_criterion2(
            fam, gauge_for=lambda j: const_gauge(0.1), alpha2=SIN1, eps=1e-2,
            j_list=[2, 3], trials=n, seed=0,
        ),
    }


@pytest.mark.parametrize("trials", [2.5, "3"])
@pytest.mark.parametrize("entry", _trials_entry_points())
def test_non_integer_trials_raises_before_any_build(monkeypatch, entry, trials):
    from gaugequad import partition

    builds = []
    build = partition._build_fine
    monkeypatch.setattr(partition, "_build_fine", lambda *a: builds.append(a) or build(*a))
    call = _trials_entry_points()[entry]
    with pytest.raises(ValueError, match="trials"):
        call(trials)
    assert builds == []
    call(2)  # the same call with an integer trials builds
    assert builds


def test_criterion2_is_deterministic():
    eps = 1e-2
    q = math.ceil(1.0 / math.sqrt(eps))
    kwargs = dict(
        gauge_for=lambda j: osc.truncated_gauge_family(j).at(0.5 * eps),
        alpha2=SIN1,
        eps=eps,
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
        alpha1=100.0, eps=eps, trials=1, seed=0,
    )


def criterion2_at(eps):
    return check_criterion2(
        paper_family(), gauge_for=lambda j: const_gauge(0.1),
        alpha2=100.0, eps=eps, j_list=[2], trials=1, seed=0,
    )


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [criterion1_at, criterion2_at])
def test_criteria_reject_nonfinite_or_nonpositive_eps(check, eps):
    # a nan band compares false, so every sum against alpha 100 would pass
    with pytest.raises(InvalidTolerance, match="eps must be finite and positive"):
        check(eps)


# ------------------------------------------------------ negative controls

def test_bump_family_passes_criteria_1_and_2_but_fails_criterion_3():
    # the limit 0 and the integrals' limit 1 do not interchange; dominated
    # convergence has no dominating function here and cannot see it
    eps = 0.05
    rep1 = check_criterion1(
        bump_family(), smooth_gauge_family(), bump_selector(),
        alpha1=0.0, eps=eps, trials=3, seed=0,
    )
    assert (rep1.passed, rep1.violations, rep1.trials) == (True, 0, 3)
    assert rep1.worst_deviation == 0.0  # every admissible index gives 0
    rep2 = check_criterion2(
        bump_family(),
        gauge_for=lambda j: const_gauge(eps / (8 * j)),
        alpha2=1.0,
        eps=eps,
        j_list=[5, 10, 40],
        trials=2,
        seed=0,
    )
    assert (rep2.passed, rep2.violations, rep2.trials) == (True, 0, 9)
    # only the cells at 0 and at 1/j miss, each by under delta: the sum is
    # within 2 j delta = eps/4 of 1
    assert 0.0 < rep2.worst_deviation < eps / 4
    assert not check_criterion3(0.0, 1.0, 2 * eps)


@pytest.mark.parametrize("alpha2, violations", [(-1.0, 3), (0.0, 6), (1.0, 3)])
def test_alternating_family_fails_criterion2_for_every_alpha(alpha2, violations):
    rep = check_criterion2(
        alternating_family(),
        gauge_for=lambda j: const_gauge(0.1),
        alpha2=alpha2,
        eps=0.25,
        j_list=[2, 3],
        trials=2,
        seed=0,
    )
    assert (rep.passed, rep.violations, rep.trials) == (False, violations, 6)
    assert rep.worst_deviation == pytest.approx(1.0 + abs(alpha2), abs=1e-12)


@pytest.mark.parametrize("trials", [1, 3])
def test_criterion2_sums_partition_i_with_the_j_it_was_built_for(trials):
    # partition i is built under gauge_for(j_list[i // (trials + 1)]), so its
    # cell count tells which j it belongs to; the alternating control above
    # cannot see a j taken as j_list[i % len(j_list)], whose (-1)**j values
    # come out as the same multiset
    seen = []

    def member_at(j, x):
        seen.append((j, len(x)))
        return np.full(np.shape(x), float(j))

    j_list = [2, 8, 32]
    rep = check_criterion2(
        IntegrandFamily(member_at=member_at, domain=UNIT),
        gauge_for=lambda j: const_gauge(0.5 / j),
        alpha2=0.0,
        eps=1e-2,
        j_list=j_list,
        trials=trials,
        seed=4,
    )
    want = []
    for jn, j in enumerate(j_list):
        g = const_gauge(0.5 / j)
        cells = [len(cousin_partition(UNIT, g))]
        cells += [len(random_delta_fine_partition(UNIT, g, [4, 3, jn, t])) for t in range(trials)]
        want += [(j, n) for n in cells]
    assert seen == want
    by_j = [{n for jj, n in want if jj == j} for j in j_list]
    assert sum(map(len, by_j)) == len(set().union(*by_j))  # no count is shared by two j
    assert rep.trials == len(j_list) * (trials + 1)
    assert rep.worst_deviation == pytest.approx(32.0, rel=1e-12)


# ------------------------------------------------------- check_criterion3

def test_criterion3_cases():
    assert check_criterion3(SIN1, SIN1, 1e-12)
    assert not check_criterion3(SIN1, 0.8, 1e-3)
    assert check_criterion3(0.0, 0.0, 0.0)
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(InvalidTolerance, match="tol must be finite and >= 0"):
            check_criterion3(0.0, 0.0, bad)


# ------------------------------------------------- per-point fallback

def build_with_gauge(wrap):
    p = cousin_partition(UNIT, Gauge(wrap(lambda x: 0.02 + x / 8.0)))
    return p.tags.tolist(), p.lefts.tolist(), p.rights.tolist()


def check_with_threshold(wrap):
    sel = IndexSelector(wrap(osc.index_selector().threshold))
    return check_criterion1(
        paper_family(), osc.loop_gauge_family(), sel,
        alpha1=SIN1, eps=1e-2, trials=2, seed=0,
    )


def sum_with_member(wrap):
    p = cousin_partition(UNIT, osc.loop_gauge_family().at(1e-2))
    idx = np.random.default_rng(5).integers(1, 40, size=len(p))
    return variable_index_sum(IntegrandFamily(wrap(osc.f_j), UNIT), idx, p)


@pytest.mark.parametrize(
    "run", [build_with_gauge, check_with_threshold, sum_with_member]
)
def test_scalar_only_callable_matches_vectorized_bitwise(run):
    assert run(scalar_only) == run(lambda fn: fn)
