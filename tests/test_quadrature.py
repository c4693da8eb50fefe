"""Tests for the shared adaptive Simpson integrator."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from mssim import StabilityIndex, Truncation, ppp
from mssim.quadrature import _MAX_DEPTH, _REL_FLOOR, DEFAULT_TOL, integrate


def test_cubic_is_exact():
    assert integrate(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_smooth_transcendental():
    assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert integrate(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-10)


def test_zero_width_interval():
    assert integrate(np.exp, 2.0, 2.0) == 0.0


def test_reversed_bounds_flip_sign():
    fwd = integrate(np.exp, 0.0, 1.0)
    assert integrate(np.exp, 1.0, 0.0) == pytest.approx(-fwd, abs=1e-12)


def test_non_finite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, math.inf)


def test_non_finite_integrand_raises():
    with pytest.raises(ValueError):
        integrate(lambda x: np.full_like(x, math.inf), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: np.where(x == 0.5, math.inf, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: np.full_like(x, math.nan), 0.0, 1.0)


def test_sharp_peak():
    # localized Gaussian bump: forces adaptive refinement near x=0.37
    val = integrate(lambda x: np.exp(-((x - 0.37) / 0.05) ** 2), 0.0, 1.0)
    assert val == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-8)


def test_huge_integrand_terminates_with_relative_accuracy():
    # absolute tolerance 1e-10 is unreachable in float64 at this magnitude;
    # the relative floor must stop the refinement with a good relative answer
    val = integrate(lambda x: 1e9 * np.exp(x), 0.0, 1.0)
    assert val == pytest.approx(1e9 * (math.e - 1.0), rel=1e-12)


# -- the breadth-first order against the depth-first recursion ----------------


def _depth_first(f, a, b, tol=DEFAULT_TOL):
    """The scalar depth-first adaptive Simpson the breadth-first quadrature
    replaced: same nodes, accept test, tolerance halving and depth cap."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, _MAX_DEPTH)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise ValueError(f"integrand is not finite on [{a}, {b}]")
    accept = 15.0 * max(tol, _REL_FLOOR * abs(left + right))
    if depth <= 0 or abs(delta) <= accept:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def _scalar(f):
    """``f`` at one Python float: the same float ops, so bit-identical values."""
    return lambda x: float(f(np.array([x]))[0])


_coef = st.floats(-1e3, 1e3, allow_nan=False)
_end = st.floats(-10.0, 10.0, allow_nan=False)


def _polynomial(coefs):
    def f(x):
        out = np.zeros_like(x)
        for c in coefs:  # Horner, highest degree first
            out = out * x + c
        return out

    return f


@settings(max_examples=60, deadline=None)
@given(st.lists(_coef, min_size=1, max_size=7), _end, _end,
       st.sampled_from([DEFAULT_TOL, 1e-6, 1e-13]))
def test_breadth_first_equals_depth_first_on_polynomials(coefs, a, b, tol):
    a, b = min(a, b), max(a, b)
    f = _polynomial(coefs)
    if a == b:
        assert integrate(f, a, b, tol) == 0.0
        return
    assert integrate(f, a, b, tol) == _depth_first(_scalar(f), a, b, tol)


@settings(max_examples=60, deadline=None)
@given(_end, _end, st.lists(st.tuples(_end, _coef), min_size=1, max_size=4), _coef)
def test_breadth_first_equals_depth_first_on_steps(a, b, steps, base):
    # at a jump the local error shrinks no faster than the tolerance, so
    # these trees grow deep
    a, b = min(a, b), max(a, b)

    def f(x):
        out = np.full_like(x, base)
        for at, height in steps:
            out = np.where(x >= at, out + height, out)
        return out

    if a == b:
        return
    assert integrate(f, a, b) == _depth_first(_scalar(f), a, b)


def test_integrand_calls_are_one_per_level(monkeypatch):
    # the steepest block of the capped passage plan: eps = 1e-250 on the
    # last window of the affine index's 2.5 horizon
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 2.5)
    calls = []

    def counting(f, a, b, *args):
        def g(x):
            calls.append(len(x))
            return f(x)

        return integrate(g, a, b, *args)

    monkeypatch.setattr(ppp, "integrate", counting)
    count = ppp.expected_count_window(idx, 2.25, 2.5, Truncation("threshold", 1e-250))
    assert count > 1e200
    assert 2 <= len(calls) <= _MAX_DEPTH + 2
    assert calls[0] == 3  # the two ends and the midpoint
    assert all(n % 2 == 0 for n in calls[1:])  # two new midpoints per open interval
