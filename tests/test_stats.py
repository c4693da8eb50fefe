"""Tests for the estimators and the Mittag-Leffler oracle."""

import math

import mpmath
import numpy as np
import pytest

from mssim import (
    DegenerateSampleError,
    RngStream,
    StabilityIndex,
    Truncation,
    build_path,
    empirical_laplace,
    eval_many,
    increment_correlation,
    ks_critical_value,
    ks_two_sample,
    mittag_leffler,
    plan_block,
    sample_pattern,
)


def _ml_series(beta, z):
    """E_beta(z) for z < 0 by its power series in arbitrary precision: the
    independent reference for the oracle's integral.  The working precision
    is sized to the largest term, so the alternating cancellation costs no
    accuracy; the cost grows like |z|**(1/beta) terms."""
    logz = math.log(abs(z))
    k_peak = 1
    max_log = 0.0
    k = 1
    while True:
        term_log = k * logz - math.lgamma(beta * k + 1.0)
        if term_log > max_log:
            max_log, k_peak = term_log, k
        if k > k_peak + 8 and term_log < max_log - 80.0:
            break
        k += 1
    dps = 25 + max(0, int(max_log / math.log(10.0)))
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        # beta*k + 1 must be formed in working precision: a float64 product
        # perturbs each Gamma argument enough to wreck the cancellation
        bb = mpmath.mpf(beta)
        total = mpmath.mpf(1)
        k = 1
        while True:
            term = zz**k / mpmath.gamma(bb * k + 1)
            total += term
            if k > k_peak and abs(term) < mpmath.mpf(10) ** (-25):
                break
            k += 1
        return float(total)


def test_empirical_laplace_examples():
    est = empirical_laplace([0.0, math.log(2.0)], 1.0)
    assert est.mean == pytest.approx(0.75, abs=1e-15)
    assert empirical_laplace([1.0, 2.0, 3.0], 0.0).mean == 1.0
    assert empirical_laplace([1.0, 2.0, 3.0], 0.0).se == 0.0
    assert empirical_laplace([2.0, 2.0, 2.0], 1.3).se == 0.0
    with pytest.raises(ValueError):
        empirical_laplace([1.0], 1.0)
    with pytest.raises(ValueError):
        empirical_laplace([1.0, 2.0], -0.5)


def test_ks_examples():
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_two_sample([1.0, 2.0], [5.0, 6.0]) == 1.0
    assert ks_two_sample([1.0, 3.0], [2.0, 4.0]) == 0.5
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_symmetry_and_transform_invariance():
    rng = np.random.default_rng(2)
    xs = rng.normal(0.0, 1.0, 500)
    ys = rng.normal(0.3, 1.2, 700)
    d = ks_two_sample(xs, ys)
    assert ks_two_sample(ys, xs) == d
    assert ks_two_sample(np.exp(xs), np.exp(ys)) == pytest.approx(d, abs=1e-15)


def test_ks_critical_value():
    assert ks_critical_value(100, 100, 0.01) == pytest.approx(1.63 * math.sqrt(0.02))
    assert ks_critical_value(50, 200, 0.05) == pytest.approx(1.36 * math.sqrt(250 / 10_000))
    with pytest.raises(ValueError):
        ks_critical_value(10, 10, 0.1)


def test_mittag_leffler_trivial_cases():
    assert mittag_leffler(0.7, 0.0) == 1.0
    assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        mittag_leffler(0.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.5, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0)


def test_mittag_leffler_half_identity():
    # E_{1/2}(-x) = exp(x**2) * erfc(x)
    for x in np.linspace(0.05, 20.0, 400):
        expect = math.exp(x * x) * math.erfc(x)
        assert abs(mittag_leffler(0.5, -x) - expect) <= 1e-11, x


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 0.95, 0.999, 0.9999])
def test_mittag_leffler_integral_matches_series(beta):
    # the series needs about |z|**(1/beta) / beta terms, so small beta stays at |z| <= 1
    xs = (1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0) + ((2.0, 3.5, 5.0) if beta >= 0.3 else ())
    for x in xs:
        assert abs(mittag_leffler(beta, -x) - _ml_series(beta, -x)) <= 1e-10, x


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("z", [-1e-300, -1e-20, -1e-12, -1e-9])
def test_mittag_leffler_at_tiny_z_matches_series(beta, z):
    # the quadrature alone was 7e-11 low here: it cannot resolve the u -> 0 end
    assert abs(mittag_leffler(beta, z) - _ml_series(beta, z)) <= 1e-15


def test_mittag_leffler_monotone_in_z():
    for beta in (0.3, 0.5, 0.8, 1.0):
        zs = -np.concatenate((np.linspace(0.0, 5.0, 21), [7.0, 10.0, 20.0, 50.0]))
        vals = [mittag_leffler(beta, float(z)) for z in zs]
        assert vals[0] == 1.0
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)


def _increments(seed, n, windows):
    """Increments D(b) - D(a) of n stationary paths, one column per window."""
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("stationary", 200.0))
    a, b = np.array(windows).T
    return np.array([
        eval_many(*p, b) - eval_many(*p, a)
        for p in (build_path(q.times, q.sizes)
                  for q in (sample_pattern([RngStream(seed, r)], blk, idx) for r in range(n)))
    ])


def test_increment_correlation_identical_windows():
    inc = _increments(1, 50, [(0.0, 0.5)])[:, 0]
    assert increment_correlation(inc, inc) == pytest.approx(1.0, abs=1e-12)


def test_increment_correlation_disjoint_windows_near_zero():
    n = 800
    inc = _increments(2, n, [(0.0, 0.5), (0.5, 1.0)])
    corr = increment_correlation(inc[:, 0], inc[:, 1])
    assert type(corr) is float and abs(corr) <= 3.0 / math.sqrt(n)


def test_increment_correlation_rejects_overlap_and_degenerate():
    # the samples must pair up path by path
    with pytest.raises(ValueError):
        increment_correlation([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        increment_correlation([1.0], [2.0])
    # every path jumps only before 0.5: the (0.5, 1] sample has zero variance
    with pytest.raises(DegenerateSampleError):
        increment_correlation([1.0, 2.0], [0.0, 0.0])
