"""Tests for the truncated point-process samplers and their mass accounting."""

import math

import numpy as np
import pytest

from mssim import (
    RngStream,
    StabilityIndex,
    Truncation,
    expected_count_window,
    ks_critical_value,
    ks_two_sample,
    sample_stationary,
    sample_threshold,
    small_jump_mass_window,
    solve_truncation,
)

IDX_HALF = StabilityIndex.from_spec("constant:0.5", 1.0)
IDX_AFFINE = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)

# chi-square 1% critical values by degrees of freedom
CHI2_99 = {9: 21.666}


def test_zero_window_gives_empty_pattern():
    pat = sample_stationary(RngStream(1, 0), 0.0, 100.0, IDX_HALF)
    assert len(pat.times) == 0 and len(pat.sizes) == 0


def test_stationary_pattern_invariants():
    pat = sample_stationary(RngStream(2, 0), 1.0, 100.0, IDX_HALF)
    assert ((pat.times >= 0) & (pat.times <= 1.0)).all()
    assert (pat.sizes >= 100.0 ** (-1.0 / 0.5)).all()  # x >= M**(-1/beta)


def test_stationary_mean_count():
    counts = [
        len(sample_stationary(RngStream(3, rep), 1.0, 100.0, IDX_HALF).times)
        for rep in range(10_000)
    ]
    assert abs(np.mean(counts) - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000)


def test_threshold_pattern_invariants():
    pat = sample_threshold(RngStream(4, 0), 1.0, 0.01, IDX_AFFINE)
    assert ((pat.times >= 0) & (pat.times <= 1.0)).all()
    assert (pat.sizes >= 0.01).all()


def test_threshold_rejects_eps_at_or_above_one():
    with pytest.raises(ValueError):
        sample_threshold(RngStream(4, 0), 1.0, 1.0, IDX_HALF)


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
    pat = sample_threshold(RngStream(5, 0), 1.0, 0.01, IDX_HALF)
    reps = 1
    sizes = [pat.sizes]
    while sum(len(s) for s in sizes) < 200_000:
        sizes.append(sample_threshold(RngStream(5, reps), 1.0, 0.01, IDX_HALF).sizes)
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
    m = solve_truncation(idx, 1.0, "stationary", 1e-3)
    assert m.parameter == pytest.approx(0.099 ** (-1.0 / 99.0), rel=1e-9)


def test_sampler_equivalence_ks():
    n = 2000
    m = solve_truncation(IDX_HALF, 1.0, "stationary", 1e-3).parameter
    eps = solve_truncation(IDX_HALF, 1.0, "threshold", 1e-3).parameter
    a = np.array(
        [sample_stationary(RngStream(6, r), 1.0, m, IDX_HALF).sizes.sum() for r in range(n)]
    )
    b = np.array(
        [sample_threshold(RngStream(7, r), 1.0, eps, IDX_HALF).sizes.sum() for r in range(n)]
    )
    assert ks_two_sample(a, b) < ks_critical_value(n, n, 0.01)


def test_point_count_law_chi_square():
    # counts of jumps with size in [0.01, 0.04) on [0, 1] are Poisson with
    # mean 0.01**-0.5 - 0.04**-0.5 = 5
    reps = 10_000
    mean = 5.0
    counts = np.array([
        int((sample_threshold(RngStream(8, r), 1.0, 0.01, IDX_HALF).sizes < 0.04).sum())
        for r in range(reps)
    ])
    cells = 10  # 0..8 and >= 9
    observed = np.array([(counts == k).sum() for k in range(cells - 1)] + [(counts >= cells - 1).sum()])
    pmf = np.array([math.exp(-mean) * mean**k / math.factorial(k) for k in range(cells - 1)])
    expect = np.append(pmf, 1.0 - pmf.sum()) * reps
    stat = float(((observed - expect) ** 2 / expect).sum())
    assert stat < CHI2_99[cells - 1]
