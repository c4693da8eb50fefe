"""Tests for jump-path construction, evaluation, and the transform oracle."""

import math

import mpmath
import numpy as np
import pytest

from mssim import (
    RngStream,
    StabilityIndex,
    Truncation,
    build_path,
    eval_many,
    first_passage,
    gamma_fn,
    laplace_transform,
    plan_block,
    sample_pattern,
)
from mssim.experiments import _increments, stream_for
from mssim.subordinator import dropped_exponent, lower_gamma


def _path(times, sizes):
    return build_path(np.asarray(times, float), np.asarray(sizes, float))


def test_build_empty():
    times, prefix = _path([], [])
    assert len(times) == 0 and len(prefix) == 0
    assert eval_many(times, prefix, [0.0, 1.0]).tolist() == [0.0, 0.0]


def test_build_sorts_and_accumulates():
    times, prefix = _path([0.5, 0.2], [2.0, 1.0])
    assert times.tolist() == [0.2, 0.5]
    assert prefix.tolist() == [1.0, 3.0]


def test_tied_times_read_the_whole_tie():
    # a tie has probability zero; the path still reads the sum of the whole
    # tie at its time, and a level inside the tie is first passed there
    times, prefix = _path([0.3, 0.3, 0.7], [1.0, 2.0, 4.0])
    assert eval_many(times, prefix, [0.3, 0.7]).tolist() == [3.0, 7.0]
    assert first_passage(times, prefix, [2.5]).tolist() == [0.3]


def test_build_large_pattern_resummation():
    rng = np.random.default_rng(99)
    times = rng.uniform(0.0, 1.0, 100_000)
    sizes = rng.pareto(1.5, 100_000) + 1e-9
    _, prefix = _path(times, sizes)
    assert (np.diff(prefix) > 0).all()
    reference = math.fsum(sizes)
    assert abs(prefix[-1] - reference) <= 1e-12 * reference


def test_eval_examples():
    path = _path([0.5, 0.2], [2.0, 1.0])
    # right-continuous: the jump at 0.2 counts at its own time
    assert eval_many(*path, [0.3, 0.2, 0.1]).tolist() == [1.0, 1.0, 0.0]


def test_eval_many_matches_scalar():
    path = _path([0.5, 0.2], [2.0, 1.0])
    ts = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
    assert eval_many(*path, ts).tolist() == [0.0, 0.0, 1.0, 1.0, 3.0, 3.0]


def test_increment_examples():
    # the pipelines' increments over (a, b] are masked sums of the pattern;
    # they must equal D(b) - D(a) of the path built from the same pattern
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("stationary", 200.0))
    windows = [(0.1, 0.4), (0.25, 0.35), (0.1, 0.55), (0.0, 0.5), (0.5, 1.0)]
    inc = _increments(20, None, 3, 5, idx, blk, windows)
    for rep in range(20):
        pat = sample_pattern([stream_for(3, 5, rep)], blk, idx)
        path = build_path(pat.times, pat.sizes)
        a, b = np.array(windows).T
        # prefix-sum differences carry rounding of the order of the path total
        want = eval_many(*path, b) - eval_many(*path, a)
        assert inc[rep] == pytest.approx(want, rel=0, abs=1e-12 * path[1][-1])


def test_gamma_fn_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(2.0) == 1.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.0)
    zs = np.array([1.0, 2.0, 0.5])
    assert gamma_fn(zs).tolist() == [gamma_fn(z) for z in zs.tolist()]
    with pytest.raises(ValueError):
        gamma_fn(np.array([0.5, 0.0]))


def test_laplace_transform_trivial_arguments():
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    assert laplace_transform(idx, 0.0, 1.0) == 1.0
    assert laplace_transform(idx, 2.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        laplace_transform(idx, -1.0, 1.0)


def test_laplace_transform_constant_index_closed_form():
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    assert laplace_transform(idx, 1.0, 1.0) == pytest.approx(math.exp(-math.sqrt(math.pi)), abs=1e-9)
    for theta, t in ((0.5, 0.5), (2.0, 1.0), (3.7, 0.25)):
        expect = math.exp(-math.gamma(0.5) * t * theta**0.5)
        assert laplace_transform(idx, theta, t) == pytest.approx(expect, abs=1e-9)
    idx3 = StabilityIndex.from_spec("constant:0.3", 1.0)
    expect = math.exp(-math.gamma(0.7) * 0.5 * 2.0**0.3)
    assert laplace_transform(idx3, 2.0, 0.5) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("s", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_lower_gamma_matches_mpmath(s):
    # the series below z = 40 and Gamma(s) from there, on both sides of 40;
    # the tolerance lets a subnormal value round differently
    zs = np.array([0.0, 1e-320, 1e-300, 1e-8, 0.3, 1.0, 7.0, 25.0, 39.99, 40.0, 40.01, 100.0, 1e3])
    want = [float(mpmath.gammainc(s, 0, z)) for z in zs]
    np.testing.assert_allclose(lower_gamma(s, zs), want, rtol=1e-14, atol=1e-320)
    assert float(lower_gamma(s, 2.0)) == pytest.approx(float(mpmath.gammainc(s, 0, 2)), rel=1e-14)


@pytest.mark.parametrize("level", [3.0, 12.5])
def test_dropped_exponent_matches_a_double_integral(level):
    # R = int_0^t int_0^c (1 - exp(-theta x)) beta x**(-beta-1) dx ds with
    # c = level**(-1/beta(s)), by quadrature in both variables; the
    # tolerance is mpmath's own at its default precision (R itself matches
    # a 25-digit quadrature to 2.4e-14 at level 12.5, which took 40 s)
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    theta = 2.0

    def inner(s):
        beta = mpmath.mpf(0.4) + mpmath.mpf(0.2) * s
        c = mpmath.mpf(level) ** (-1 / beta)
        return mpmath.quad(lambda x: -mpmath.expm1(-theta * x) * beta * x ** (-beta - 1), [0, c])

    want = float(mpmath.quad(inner, [0, 1]))
    assert dropped_exponent(idx, theta, 1.0, level) == pytest.approx(want, rel=1e-10)


def test_path_values_monotone_in_time():
    idx = StabilityIndex.from_spec("sin:0.5,0.3,1", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("threshold", 1e-4))
    pat = sample_pattern([RngStream(12, 0)], blk, idx)
    vals = eval_many(*build_path(pat.times, pat.sizes), np.linspace(0.0, 1.0, 500))
    assert (np.diff(vals) >= 0).all()
