"""Tests for the truncated point-process samplers and their mass accounting."""

import math
import warnings

import numpy as np
import pytest

from mssim import experiments, ppp, rng
from mssim import (
    PointPattern,
    RngStream,
    StabilityIndex,
    Truncation,
    expected_count_window,
    gamma_fn,
    ks_critical_value,
    ks_two_sample,
    laplace_transform,
    plan_block,
    sample_pattern,
    small_jump_mass_window,
    solve_truncation,
)
from mssim.ppp import small_jump_variance_window

IDX_HALF = StabilityIndex.from_spec("constant:0.5", 1.0)
IDX_AFFINE = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)

# chi-square 1% critical values by degrees of freedom
CHI2_99 = {9: 21.666}

# an affine index with a steep slope: thinning keeps about 24% of its candidates
IDX_STEEP = StabilityIndex.from_spec("affine:0.2,0.6", 1.0)


def _block(idx, mode, parameter, t0=0.0, t1=1.0):
    return plan_block(idx, t0, t1, Truncation(mode, parameter))


STATIONARY_100 = _block(IDX_HALF, "stationary", 100.0)
THRESHOLD_HALF = _block(IDX_HALF, "threshold", 0.01)


def test_zero_window_gives_empty_pattern():
    # a window whose expected count is 1e-15 draws no point
    blk = _block(IDX_HALF, "stationary", 1e-6, t1=1e-9)
    assert blk.mean_count == pytest.approx(1e-15)
    pat = sample_pattern([RngStream(1, 0)], blk, IDX_HALF)
    assert len(pat.times) == 0 and len(pat.sizes) == 0


def test_plan_block_rejects_empty_and_outside_windows():
    trunc = Truncation("stationary", 100.0)
    for t0, t1 in ((0.5, 0.5), (0.6, 0.5), (-0.1, 0.5), (0.5, 1.1), (0.0, np.inf),
                   (np.nan, 0.5)):
        with pytest.raises(ValueError):
            plan_block(IDX_HALF, t0, t1, trunc)
    # the horizon's rounding slack is clamped away
    assert plan_block(IDX_HALF, 0.5, 1.0 + 1e-13, trunc).t1 == 1.0


def test_stationary_pattern_invariants():
    pat = sample_pattern([RngStream(2, 0)], STATIONARY_100, IDX_HALF)
    assert ((pat.times >= 0) & (pat.times <= 1.0)).all()
    assert (pat.sizes >= 100.0 ** (-1.0 / 0.5)).all()  # x >= M**(-1/beta)


def test_stationary_mean_count():
    counts = [
        len(sample_pattern([RngStream(3, rep)], STATIONARY_100, IDX_HALF).times)
        for rep in range(10_000)
    ]
    assert abs(np.mean(counts) - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000)


def test_threshold_pattern_invariants():
    pat = sample_pattern([RngStream(4, 0)], _block(IDX_AFFINE, "threshold", 0.01), IDX_AFFINE)
    assert ((pat.times >= 0) & (pat.times <= 1.0)).all()
    assert (pat.sizes >= 0.01).all()
    # a block inside the horizon keeps its times in the block
    pat = sample_pattern([RngStream(4, 1)], _block(IDX_AFFINE, "threshold", 0.01, 0.25, 0.5),
                           IDX_AFFINE)
    assert len(pat.times) and ((pat.times >= 0.25) & (pat.times <= 0.5)).all()


def test_threshold_rejects_eps_at_or_above_one():
    with pytest.raises(ValueError):
        _block(IDX_HALF, "threshold", 1.0)


def test_threshold_intensity_constant_index():
    # Lambda = eps**(-beta) * T = 10 for constant beta = 0.5, eps = 0.01
    trunc = Truncation("threshold", 0.01)
    assert expected_count_window(IDX_HALF, 0.0, 1.0, trunc) == pytest.approx(10.0, abs=1e-9)


def test_threshold_intensity_affine_index_closed_form():
    # int_0^1 eps**-(0.4+0.2s) ds with eps=0.01:
    # antiderivative of exp((0.4+0.2s) ln 100) gives
    # (100**0.6 - 100**0.4) / (0.2 * ln 100)
    closed = (100.0**0.6 - 100.0**0.4) / (0.2 * math.log(100.0))
    assert closed == pytest.approx(10.357226871695, abs=1e-9)
    trunc = Truncation("threshold", 0.01)
    assert expected_count_window(IDX_AFFINE, 0.0, 1.0, trunc) == pytest.approx(closed, abs=1e-9)


def _count_closed_form(c0, c1, t0, t1, eps):
    # int_t0^t1 eps**-(c0 + c1 s) ds
    #   = eps**-c0 * (eps**(-c1 t1) - eps**(-c1 t0)) / (-c1 ln eps),
    # written through expm1 so that a small c1 * (t1 - t0) loses no digits
    k = -math.log(eps)
    if c1 == 0.0:
        return math.exp(c0 * k) * (t1 - t0)
    return math.exp((c0 + c1 * t0) * k) * math.expm1(c1 * (t1 - t0) * k) / (c1 * k)


@pytest.mark.parametrize("spec", ["constant:0.5", "constant:0.9", "affine:0.4,0.2",
                                  "affine:0.7,-0.2"])
@pytest.mark.parametrize("eps", [1e-3, 1e-10, 1e-50, 1e-100, 1e-250])
@pytest.mark.parametrize("window", [(0.0, 1.0), (0.25, 0.5), (1.25, 1.5)])
def test_expected_count_matches_closed_form(spec, eps, window):
    idx = StabilityIndex.from_spec(spec, 1.5)
    c0, c1 = (idx.params + (0.0,))[:2]
    count = expected_count_window(idx, *window, Truncation("threshold", eps))
    assert count == pytest.approx(_count_closed_form(c0, c1, *window, eps), rel=1e-12)


def test_threshold_conditional_size_tail():
    # given beta = 0.5, P(x > 0.16) = (0.16/0.01)**-0.5 = 0.25
    pat = sample_pattern([RngStream(5, 0)], THRESHOLD_HALF, IDX_HALF)
    reps = 1
    sizes = [pat.sizes]
    count = len(pat.sizes)
    while count < 200_000:
        sizes.append(sample_pattern([RngStream(5, reps)], THRESHOLD_HALF, IDX_HALF).sizes)
        count += len(sizes[-1])
        reps += 1
    sizes = np.concatenate(sizes)
    p = float((sizes > 0.16).mean())
    se = math.sqrt(0.25 * 0.75 / len(sizes))
    assert abs(p - 0.25) <= 4.0 * se


def test_small_jump_mass_examples():
    mass = small_jump_mass_window(IDX_HALF, 0.0, 1.0, Truncation("threshold", 0.01))
    assert mass == pytest.approx(0.1, abs=1e-9)
    mass = small_jump_mass_window(IDX_HALF, 0.0, 1.0, Truncation("stationary", 100.0))
    assert mass == pytest.approx(0.01, abs=1e-9)
    assert small_jump_mass_window(IDX_AFFINE, 0.0, 0.0, Truncation("threshold", 0.01)) == 0.0


def test_solve_truncation_meets_budget():
    m = solve_truncation(IDX_HALF, 1.0, "stationary", 1e-3)
    assert m.mode == "stationary"
    assert m.parameter == pytest.approx(1000.0, rel=1e-6)  # mass = 1/M for beta = 0.5
    eps = solve_truncation(IDX_HALF, 1.0, "threshold", 1e-3)
    assert eps.mode == "threshold"
    assert eps.parameter == pytest.approx(1e-6, rel=1e-6)  # mass = sqrt(eps)
    for trunc in (m, eps):
        assert small_jump_mass_window(IDX_HALF, 0.0, 1.0, trunc) <= 1e-3 * (1 + 1e-9)
    m2 = solve_truncation(IDX_AFFINE, 1.0, "stationary", 1e-3)
    assert small_jump_mass_window(IDX_AFFINE, 0.0, 1.0, m2) <= 1e-3 * (1 + 1e-9)


def test_solve_truncation_below_the_overflow_index():
    # for beta = 0.01 the bracket start M = 1e-6 gives M**(1 - 1/beta) = 1e594,
    # beyond the float range; the root is M = (0.99 * 1e-3 / 0.01)**(-1/99)
    idx = StabilityIndex.from_spec("constant:0.01", 1.0)
    assert small_jump_mass_window(idx, 0.0, 1.0, Truncation("stationary", 1e-6)) == math.inf
    # binned, it is inf in every bin
    binned = small_jump_mass_window(idx, 0.0, 1.0, Truncation("stationary", 1e-6), 4)
    assert binned.shape == (4,) and np.isposinf(binned).all()
    m = solve_truncation(idx, 1.0, "stationary", 1e-3)
    assert m.parameter == pytest.approx(0.099 ** (-1.0 / 99.0), rel=1e-9)


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
def test_stationary_excluded_variance_at_a_constant_index(beta):
    # jumps below c = M**(-1/beta) have variance beta/(2-beta) * c**(2-beta) per unit time
    idx = StabilityIndex.from_spec(f"constant:{beta}", 2.0)
    var = small_jump_variance_window(idx, 0.0, 2.0, Truncation("stationary", 12.5))
    assert var == pytest.approx(beta / (2.0 - beta) * 12.5 ** (-(2.0 - beta) / beta) * 2.0,
                                rel=1e-12)


def test_stationary_excluded_variance_overflows_to_inf_quietly():
    # M**(1 - 2/beta) = 1e1194 at M = 1e-6 and beta = 0.01
    idx = StabilityIndex.from_spec("constant:0.01", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert small_jump_variance_window(idx, 0.0, 1.0, Truncation("stationary", 1e-6)) \
            == math.inf
        # the compensated solve brackets through that overflow
        m = solve_truncation(idx, 1.0, "stationary", 1e-3, compensated=True)
    assert m.parameter == pytest.approx((1e-6 * 1.99 / 0.01) ** (-0.01 / 1.99), rel=1e-9)


def test_a_compensated_solve_takes_an_sd_whose_square_passes_the_float_range():
    # an sd of 4e158 has a variance of 1.6e317: every level of the bracket
    # is within it, so the solve returns the end that excludes the most
    for mode, edge in (("stationary", 1e-6), ("threshold", 10.0**-1e-9)):
        trunc = solve_truncation(IDX_HALF, 1.0, mode, 4e158, compensated=True)
        assert trunc == Truncation(mode, edge)


def test_solve_truncation_caps_the_point_count():
    free = solve_truncation(IDX_AFFINE, 1.0, "threshold", 1e-3)
    count = expected_count_window(IDX_AFFINE, 0.0, 1.0, free)
    assert solve_truncation(IDX_AFFINE, 1.0, "threshold", 1e-3, max_count=2.0 * count) == free
    capped = solve_truncation(IDX_AFFINE, 1.0, "threshold", 1e-3, max_count=count / 10.0)
    kept = expected_count_window(IDX_AFFINE, 0.0, 1.0, capped)
    assert kept <= count / 10.0 and kept == pytest.approx(count / 10.0, rel=1e-9)
    assert small_jump_mass_window(IDX_AFFINE, 0.0, 1.0, capped) > 1e-3
    # the stationary count M * (T - t0) rises in M, and the same solve caps it
    m = solve_truncation(IDX_AFFINE, 1.0, "stationary", 1e-3, max_count=50.0)
    assert m.parameter <= 50.0 and m.parameter == pytest.approx(50.0, rel=1e-9)
    assert small_jump_mass_window(IDX_AFFINE, 0.0, 1.0, m) == pytest.approx(0.0315, abs=5e-5)


def _solve_sweep():
    """Truncation solves of every index family, in both modes, for the mass and
    the sd, at the passage budget, at 1e3 and at 1e-200, and with a binding
    count cap."""
    cases = []
    for spec in ("constant:0.5", "affine:0.4,0.2", "sin:0.5,0.2,1", "table:0,0.4;2,0.6"):
        idx = StabilityIndex.from_spec(spec, 2.0)
        for mode in ("threshold", "stationary"):
            for compensated in (False, True):
                for budget, t0, t1 in ((2.5e-4, 0.0, 0.25), (2.5e-4, 1.25, 1.5),
                                       (1e3, 0.0, 1.0), (1e-200, 0.0, 1.0)):
                    cases.append((idx, t1, mode, budget, t0, math.inf, compensated))
                cases.append((idx, 1.5, mode, 2.5e-4, 1.25, 1e3, compensated))
    return cases


def _bisected(idx, T, mode, budget, t0=0.0, max_count=math.inf, compensated=False):
    """The reference for ``solve_truncation``: a plain bisection on log10 p to
    a 1e-12 bracket, with the same brackets, edge return and count cap.  The
    parameter, and the window integral and target of its last solve."""
    lo, hi = (-300.0, -1e-9) if mode == "threshold" else (-6.0, 300.0)

    def solve(window_integral, target, rises):
        def above(p):
            return window_integral(idx, t0, T, Truncation(mode, 10.0**p)) > target

        a, b = lo, hi
        if not above(b if rises else a):
            return 10.0 ** (b if rises else a)
        while b - a >= 1e-12:
            mid = 0.5 * (a + b)
            a, b = (a, mid) if above(mid) == rises else (mid, b)
        return 10.0 ** (a if rises else b)

    solved = ((small_jump_variance_window, budget * budget) if compensated
              else (small_jump_mass_window, budget))
    p = solve(*solved, mode == "threshold")
    if expected_count_window(idx, t0, T, Truncation(mode, p)) > max_count:
        solved = (expected_count_window, max_count)
        p = solve(*solved, mode != "threshold")
    return p, solved


def test_a_truncation_solve_lands_next_to_a_plain_bisection():
    # an index near 0 or 1 bends the log-log integral most; the 1e-200 cases
    # lie past the far end, or have a variance target that underflows to 0
    cases = _solve_sweep() + [
        (StabilityIndex.from_spec(spec, 1.0), 1.0, mode, budget, 0.0, max_count, compensated)
        for spec in ("constant:0.01", "constant:0.99")
        for mode in ("threshold", "stationary")
        for compensated in (False, True)
        for budget, max_count in ((2.5e-4, math.inf), (1e3, math.inf), (1e-200, math.inf),
                                  (2.5e-4, 1e3))]
    bracket_ends = {10.0**p for p in (-300.0, -1e-9, -6.0, 300.0)}
    for case in cases:
        idx, T, mode, _, t0 = case[:5]
        trunc = solve_truncation(*case)
        p, (window_integral, target) = _bisected(*case)
        assert type(trunc.parameter) is float
        assert abs(math.log10(trunc.parameter) - math.log10(p)) <= 1e-12, case
        # within the target, or at a bracket end where none of the bracket is
        assert (window_integral(idx, t0, T, trunc) <= target
                or trunc.parameter == p and p in bracket_ends), case


def test_a_replayed_truncation_solve_is_a_plain_bisection(monkeypatch):
    # a 1e-200 sd has a variance target that underflows to 0, which has no
    # log: replaying the bracket end, one decade inside, then the midpoints
    # of the bracket kept from the sign, integrates at the solve's every
    # parameter, in order, and ends on its result
    cases = [case for case in _solve_sweep() if case[6] and case[3] == 1e-200]
    assert len(cases) == 8
    real, seen = ppp.small_jump_variance_window, []

    def recording(idx, t0, t1, trunc):
        seen.append(trunc.parameter)
        return real(idx, t0, t1, trunc)

    monkeypatch.setattr(ppp, "small_jump_variance_window", recording)
    for idx, T, mode, _, t0, _, _ in cases:
        seen.clear()
        trunc = solve_truncation(idx, T, mode, 1e-200, t0, compensated=True)
        rises = mode == "threshold"
        a, b = (-300.0, -1e-9) if rises else (-6.0, 300.0)
        replayed, flips = [], set()
        p = b if rises else a
        while True:
            replayed.append(10.0**p)
            v = real(idx, t0, T, Truncation(mode, 10.0**p))
            flips.add(v > 0.0)
            if len(replayed) == 1:
                if not v > 0.0:
                    break
                p = p - 1.0 if rises else p + 1.0
                continue
            a, b = (a, p) if (v > 0.0) == rises else (p, b)
            if b - a < 1e-12:
                break
            p = 0.5 * (a + b)
        assert seen == replayed and trunc.parameter == 10.0 ** (a if rises else b)
        # the variance underflows to 0 inside the bracket: the sign flips
        assert flips == {True, False} and len(seen) > 40


def test_a_truncation_solve_steps_on_floats(monkeypatch):
    # the secant's steps come out of numpy; each log10 p it integrates at,
    # and the parameter it returns, is a Python float
    seen = []
    for name in ("small_jump_mass_window", "small_jump_variance_window",
                 "expected_count_window"):
        def recording(idx, t0, t1, trunc, real=getattr(ppp, name)):
            seen.append(type(trunc.parameter))
            return real(idx, t0, t1, trunc)

        monkeypatch.setattr(ppp, name, recording)
    returned = {type(solve_truncation(*case).parameter) for case in _solve_sweep()}
    assert returned == {float} and set(seen) == {float} and len(seen) > len(_solve_sweep())


def _counted_solve(monkeypatch, *args, **kwargs):
    """A truncation solve and the number of integrals it takes."""
    real, calls = ppp.integrate, []

    def counting(*a, **k):
        calls.append(1)
        return real(*a, **k)

    with monkeypatch.context() as m:
        m.setattr(ppp, "integrate", counting)
        return solve_truncation(*args, **kwargs), len(calls)


@pytest.mark.parametrize("beta, mode, far_end", [
    # a constant index excludes beta/(1-beta) * eps**(1-beta) of mass under
    # threshold truncation, and beta/(1-beta) * M**(1-1/beta) under stationary:
    # 1e-150 at beta = 0.5 and eps = 1e-300, and 9e-34 at beta = 0.9 and
    # M = 1e300, the far ends of the brackets, so the root of a 1e-200 mass
    # budget lies past them
    (0.5, "threshold", 1e-300),
    (0.9, "stationary", 1e300),
])
def test_a_root_past_the_far_end_costs_at_most_3_integrals(monkeypatch, beta, mode, far_end):
    case = (StabilityIndex.from_spec(f"constant:{beta}", 1.0), 1.0, mode, 1e-200)
    trunc, integrals = _counted_solve(monkeypatch, *case)
    assert trunc == Truncation(mode, far_end) and integrals <= 3


def test_a_truncation_solve_raises_at_its_step_cap(monkeypatch):
    # the edge, then one step an integral: a cap one step short of the
    # solve's leaves its bracket open
    case = (IDX_AFFINE, 1.0, "threshold", 1e-3)
    trunc, integrals = _counted_solve(monkeypatch, *case)
    monkeypatch.setattr(ppp, "_ROOT_STEPS", integrals - 1)
    assert solve_truncation(*case) == trunc
    monkeypatch.setattr(ppp, "_ROOT_STEPS", integrals - 2)
    with pytest.raises(ValueError, match=f"open after {integrals - 2} steps"):
        solve_truncation(*case)


def _solve_integrals(monkeypatch, run):
    """The integrals of each truncation solve that ``run()`` makes."""
    real_integrate, real_solve = ppp.integrate, ppp.solve_truncation
    calls, per_solve = [], []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_integrate(*args, **kwargs)

    def solve(*args, **kwargs):
        calls.clear()
        trunc = real_solve(*args, **kwargs)
        per_solve.append(len(calls))
        return trunc

    with monkeypatch.context() as m:
        m.setattr(ppp, "integrate", counting)
        m.setattr(ppp, "solve_truncation", solve)
        run()
    return per_solve


def test_a_passage_plan_solve_takes_at_most_10_integrals(monkeypatch):
    # the affine:0.4,0.2 passage plan at horizon 2.5: ten windows of 0.25,
    # whose later ones also check their point cap
    idx, _ = experiments.choose_horizon("affine:0.4,0.2", 1.0, shortest=1.0)
    assert idx.horizon == 2.5
    per_solve = _solve_integrals(monkeypatch, lambda: experiments.plan_passage(idx, [1.0]))
    assert len(per_solve) == 10 and max(per_solve) <= 10, per_solve


@pytest.mark.parametrize("c2", [2, 4, 8])
def test_sin_index_integrals_see_every_period(c2):
    # the first Simpson nodes 0, 1/4, 1/2, 3/4 and 1 are zeros of
    # sin(2*pi*c2*t); the rule must not take the index for the constant 0.5
    idx = StabilityIndex.from_spec(f"sin:0.5,0.2,{c2}", 1.0)
    beta = idx.evaluate_many(np.linspace(0.0, 1.0, 200_001))

    def trapezoid(y):  # spectrally accurate over whole periods
        return (y.sum() - 0.5 * (y[0] + y[-1])) / (len(y) - 1)

    count = expected_count_window(idx, 0.0, 1.0, Truncation("threshold", 1e-6))
    assert count == pytest.approx(trapezoid(1e-6**-beta), rel=1e-9)
    exponent = trapezoid(gamma_fn(1.0 - beta) * 2.0**beta)
    assert laplace_transform(idx, 2.0, 1.0) == pytest.approx(math.exp(-exponent), rel=1e-9)


def test_sampler_equivalence_ks():
    n = 2000
    m = plan_block(IDX_HALF, 0.0, 1.0, solve_truncation(IDX_HALF, 1.0, "stationary", 1e-3))
    eps = plan_block(IDX_HALF, 0.0, 1.0, solve_truncation(IDX_HALF, 1.0, "threshold", 1e-3))
    a = np.array(
        [sample_pattern([RngStream(6, r)], m, IDX_HALF).sizes.sum() for r in range(n)]
    )
    b = np.array(
        [sample_pattern([RngStream(7, r)], eps, IDX_HALF).sizes.sum() for r in range(n)]
    )
    assert ks_two_sample(a, b) < ks_critical_value(n, n, 0.01)


def test_point_count_law_chi_square():
    # counts of jumps with size in [0.01, 0.04) on [0, 1] are Poisson with
    # mean 0.01**-0.5 - 0.04**-0.5 = 5
    reps = 10_000
    mean = 5.0
    counts = np.array([
        int((sample_pattern([RngStream(8, r)], THRESHOLD_HALF, IDX_HALF).sizes < 0.04).sum())
        for r in range(reps)
    ])
    cells = 10  # 0..8 and >= 9
    observed = np.array([(counts == k).sum() for k in range(cells - 1)] + [(counts >= cells - 1).sum()])
    pmf = np.array([math.exp(-mean) * mean**k / math.factorial(k) for k in range(cells - 1)])
    expect = np.append(pmf, 1.0 - pmf.sum()) * reps
    stat = float(((observed - expect) ** 2 / expect).sum())
    assert stat < CHI2_99[cells - 1]


def _steep_times(sampler, reps=4000):
    """Per-replication jump times of ``sampler([stream], blk, idx)`` on a
    steep threshold block over [0, 1]."""
    blk = _block(IDX_STEEP, "threshold", 1e-3)
    return [sampler([RngStream(9, r)], blk, IDX_STEEP).times for r in range(reps)]


def _steep_cdf(t):
    # P(T <= t) for the density eps**-(c0 + c1 t) on [0, 1], normalised:
    # expm1(c1 k t) / expm1(c1 k) with k = ln(1/eps)
    c1k = 0.6 * math.log(1e3)
    return np.expm1(c1k * t) / math.expm1(c1k)


def _ks_to_steep_cdf(times):
    """One-sample KS distance of ``times`` to the closed-form CDF, and the 1% critical value."""
    n = len(times)
    f = _steep_cdf(np.sort(times))
    i = np.arange(1, n + 1)
    return max((i / n - f).max(), (f - (i - 1) / n).max()), 1.628 / math.sqrt(n)


def _shifted_threshold(streams, blk, idx):
    # a mutant: the index is read 0.05 too high in the acceptance step
    (stream,) = streams
    k = stream.poisson(blk.mean_count)
    sup = blk.sup_beta
    eps = blk.trunc.parameter
    got = np.empty(0)
    while len(got) < k:
        cand = blk.t0 + (blk.t1 - blk.t0) * stream.uniform(2 * k)
        accept = stream.uniform(2 * k) < eps ** (sup - idx.evaluate_many(cand) - 0.05)
        got = np.concatenate((got, cand[accept]))
    return PointPattern(got[:k], np.ones(k), k)


def test_steep_block_accepts_fewer_than_half():
    blk = _block(IDX_STEEP, "threshold", 1e-3)
    envelope = ppp.envelope_count(blk)
    assert envelope == pytest.approx(1e3**0.8)
    assert blk.mean_count == pytest.approx(_count_closed_form(0.2, 0.6, 0.0, 1.0, 1e-3), rel=1e-12)
    assert 0.2 < blk.mean_count / envelope < 0.5


def test_threshold_sampling_reads_the_planned_supremum(monkeypatch):
    # the maximizer t = 0.25 of the sine lies inside the window
    idx = StabilityIndex.from_spec("sin:0.5,0.2,1", 1.0)
    blk = _block(idx, "threshold", 1e-3, 0.2, 0.3)
    assert blk.sup_beta == idx.bounds_on(0.2, 0.3)[1] == pytest.approx(0.7)
    monkeypatch.setattr(StabilityIndex, "bounds_on", None)
    pat = sample_pattern([RngStream(8, 0)], blk, idx)
    assert len(pat.times) and ((pat.times >= 0.2) & (pat.times <= 0.3)).all()


def test_threshold_count_is_poisson_with_the_mean_count():
    mean = _block(IDX_STEEP, "threshold", 1e-3).mean_count
    counts = np.array([len(t) for t in _steep_times(sample_pattern)])
    # ten cells with edges near the Poisson deciles
    ks = np.arange(int(3 * mean) + 50)
    pmf = np.exp(-mean + ks * math.log(mean) - np.array([math.lgamma(k + 1) for k in ks]))
    cdf = np.cumsum(pmf)
    edges = np.searchsorted(cdf, np.arange(1, 10) / 10) + 1
    expect = np.diff(np.concatenate(([0.0], cdf[edges - 1], [1.0]))) * len(counts)
    observed = np.bincount(np.searchsorted(edges, counts, side="right"), minlength=10)
    stat = float(((observed - expect) ** 2 / expect).sum())
    assert stat < CHI2_99[9]


def test_threshold_times_follow_the_closed_form_cdf():
    times = np.concatenate(_steep_times(sample_pattern))
    assert ((times >= 0.0) & (times <= 1.0)).all()
    d, crit = _ks_to_steep_cdf(times)
    assert d < crit
    # the test has the power to see an index off by 0.05 in the acceptance step
    d_mutant, crit_mutant = _ks_to_steep_cdf(np.concatenate(_steep_times(_shifted_threshold)))
    assert d_mutant > crit_mutant


def _bare(seed, stream_id):
    return np.random.Generator(np.random.Philox(key=[seed, stream_id]))


@pytest.mark.parametrize("mode, parameter", [("stationary", 1.5), ("threshold", 0.5)])
def test_sample_pattern_draw_layout_is_pinned_against_a_bare_philox(mode, parameter):
    # about 1.1 points a stream, so some streams draw none.  Stationary: the
    # count, then K times, then K levels.  Threshold: the envelope count,
    # then K candidate times, then K keep uniforms, then the sizes of the
    # kept points.  Each stream is left where the bare generator is.
    blk = _block(IDX_AFFINE, mode, parameter, 0.25, 1.0)
    streams = [RngStream(31, i) for i in range(40)]
    pat = sample_pattern(streams, blk, IDX_AFFINE)
    times, sizes, counts = [], [], []
    for i, s in enumerate(streams):
        g = _bare(31, i)
        if mode == "stationary":
            k = int(g.poisson(blk.mean_count))
            t = 0.25 + (1.0 - 0.25) * g.random(k)
            x = (parameter * g.random(k)) ** (-1.0 / IDX_AFFINE.evaluate_many(t))
        else:
            k = int(g.poisson((1.0 - 0.25) * parameter ** -blk.sup_beta))
            t = 0.25 + (1.0 - 0.25) * g.random(k)
            t = t[g.random(k) < parameter ** (blk.sup_beta - IDX_AFFINE.evaluate_many(t))]
            x = parameter * g.random(len(t)) ** (-1.0 / IDX_AFFINE.evaluate_many(t))
        times.append(t)
        sizes.append(x)
        counts.append(len(t))
        assert s.uniform(5).tobytes() == g.random(5).tobytes()
    assert 0 in counts and max(counts) > 1
    assert pat.counts.tolist() == counts
    assert pat.times.tobytes() == np.concatenate(times).tobytes()
    assert pat.sizes.tobytes() == np.concatenate(sizes).tobytes()


@pytest.mark.parametrize("mode, parameter", [("stationary", 1.5), ("threshold", 0.5)])
def test_a_batch_draws_the_patterns_of_its_streams(mode, parameter):
    # the stationary batch is drawn raw, one stream after another on one
    # generator; the threshold batch opens one stream each
    blk = _block(IDX_AFFINE, mode, parameter, 0.25, 1.0)
    want = sample_pattern([RngStream(31, 7 + i) for i in range(40)], blk, IDX_AFFINE)
    got = sample_pattern(rng.Streams(31, 7, 40), blk, IDX_AFFINE)
    assert 0 in want.counts.tolist() and max(want.counts) > 1
    assert [f.tobytes() for f in got] == [f.tobytes() for f in want]


def test_a_stationary_batch_checks_its_mean_once():
    blk = ppp.Block(0.0, 1.0, Truncation("stationary", 1.0), math.nan, 0.5)
    with pytest.raises(ValueError, match="finite and non-negative"):
        sample_pattern(rng.Streams(31, 7, 4), blk, IDX_HALF)
