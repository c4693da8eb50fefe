"""Tests for the shared adaptive Simpson integrator."""

import math

import pytest

from mssim.quadrature import integrate


def test_cubic_is_exact():
    assert integrate(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_smooth_transcendental():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-10)


def test_zero_width_interval():
    assert integrate(math.exp, 2.0, 2.0) == 0.0


def test_reversed_bounds_flip_sign():
    fwd = integrate(math.exp, 0.0, 1.0)
    assert integrate(math.exp, 1.0, 0.0) == pytest.approx(-fwd, abs=1e-12)


def test_non_finite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(math.exp, 0.0, math.inf)


def test_non_finite_integrand_raises():
    with pytest.raises(ValueError):
        integrate(lambda x: math.inf, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: math.inf if x == 0.5 else 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: math.nan, 0.0, 1.0)


def test_sharp_peak():
    # localized Gaussian bump: forces adaptive refinement near x=0.37
    val = integrate(lambda x: math.exp(-((x - 0.37) / 0.05) ** 2), 0.0, 1.0)
    assert val == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-8)


def test_huge_integrand_terminates_with_relative_accuracy():
    # absolute tolerance 1e-10 is unreachable in float64 at this magnitude;
    # the relative floor must stop the recursion with a good relative answer
    val = integrate(lambda x: 1e9 * math.exp(x), 0.0, 1.0)
    assert val == pytest.approx(1e9 * (math.e - 1.0), rel=1e-12)
