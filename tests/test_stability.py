"""Tests for the time-varying stability index families."""

import re

import numpy as np
import pytest

from mssim import StabilityIndex
from mssim.stability import _MAX_SIN_EXTREMA, FAMILIES


def test_constant_evaluate():
    idx = StabilityIndex("constant", (0.5,), 8.0)
    assert idx.evaluate(7.3) == 0.5
    assert idx.evaluate(0.0) == 0.5


def test_affine_evaluate():
    idx = StabilityIndex("affine", (0.4, 0.2), 1.0)
    assert idx.evaluate(0.5) == pytest.approx(0.5, abs=1e-15)
    assert type(idx.evaluate(0.5)) is float
    ts = np.array([[0.0, 0.25], [0.5, 1.0]])
    assert idx.evaluate(ts).shape == ts.shape
    assert (idx.evaluate(ts) == [[idx.evaluate(t) for t in row] for row in ts]).all()


def test_sinusoid_evaluate():
    idx = StabilityIndex("sin", (0.5, 0.3, 1.0), 1.0)
    assert idx.evaluate(0.25) == pytest.approx(0.8, abs=1e-12)


def test_table_interpolates_linearly():
    idx = StabilityIndex("table", ((0.0, 0.3), (1.0, 0.7)), 1.0)
    assert idx.evaluate(0.25) == pytest.approx(0.4, abs=1e-12)
    assert idx.evaluate(1.0) == pytest.approx(0.7, abs=1e-12)


def test_bounds_constant():
    idx = StabilityIndex("constant", (0.5,), 1.0)
    assert (idx.beta_inf, idx.beta_sup) == (0.5, 0.5)


def test_bounds_affine():
    idx = StabilityIndex("affine", (0.4, 0.2), 1.0)
    assert idx.beta_inf == pytest.approx(0.4, abs=1e-12)
    assert idx.beta_sup == pytest.approx(0.6, abs=1e-12)


def test_bounds_sinusoid():
    idx = StabilityIndex("sin", (0.5, 0.3, 1.0), 1.0)
    assert idx.beta_inf == pytest.approx(0.2, abs=1e-12)
    assert idx.beta_sup == pytest.approx(0.8, abs=1e-12)


def test_bounds_on_subwindow_hits_interior_extremum():
    idx = StabilityIndex("sin", (0.5, 0.3, 1.0), 1.0)
    lo, hi = idx.bounds_on(0.2, 0.3)  # the maximizer t=0.25 is interior
    assert hi == pytest.approx(0.8, abs=1e-12)
    assert lo < hi


def test_sin_extrema_are_capped_before_they_are_listed():
    # 2 * c2 * horizon extrema; past the cap, and where the product
    # overflows, the index is one line of error, not a list of 1e9 times
    at_cap = _MAX_SIN_EXTREMA / 2.0
    assert len(StabilityIndex("sin", (0.5, 0.2, at_cap), 1.0).critical_points(0.0, 1.0)) \
        == _MAX_SIN_EXTREMA
    for c2 in (at_cap * 1.01, 1e9, -1e9, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"c2={c2:g} has more than")) as err:
            StabilityIndex("sin", (0.5, 0.2, c2), 1.0)
        assert "\n" not in str(err.value) and "[0, 1]" in str(err.value)


def test_construction_rejects_out_of_range_beta():
    with pytest.raises(ValueError):
        StabilityIndex("affine", (0.4, 0.2), 4.0)  # reaches 1.2
    with pytest.raises(ValueError):
        StabilityIndex("constant", (0.0,), 1.0)
    with pytest.raises(ValueError):
        StabilityIndex("constant", (1.0,), 1.0)


def test_evaluate_rejects_out_of_domain_t():
    idx = StabilityIndex("constant", (0.5,), 1.0)
    with pytest.raises(ValueError):
        idx.evaluate(1.5)
    with pytest.raises(ValueError):
        idx.evaluate(-0.5)


def test_table_validation():
    with pytest.raises(ValueError):
        StabilityIndex("table", ((0.5, 0.3), (1.0, 0.7)), 1.0)  # must start at 0
    with pytest.raises(ValueError):
        StabilityIndex("table", ((0.0, 0.3), (0.0, 0.7)), 1.0)  # increasing knots
    with pytest.raises(ValueError):
        StabilityIndex("table", ((0.0, 0.3), (0.5, 0.7)), 1.0)  # must cover horizon


def test_from_spec_round_trip():
    for spec in ("constant:0.5", "affine:0.4,0.2", "sin:0.5,0.3,1", "table:0,0.3;1,0.7"):
        idx = StabilityIndex.from_spec(spec, 1.0)
        assert StabilityIndex.from_spec(idx.spec_string(), 1.0) == idx
        # one name per family, in the spec and in the index alike
        assert idx.family == spec.partition(":")[0] and idx.family in FAMILIES


def test_from_spec_rejects_garbage():
    for name in ("parabola", "sinusoid"):
        with pytest.raises(ValueError, match="unknown family"):
            StabilityIndex.from_spec(f"{name}:0.5,0.3,1", 1.0)
    with pytest.raises(ValueError):
        StabilityIndex.from_spec("constant:zero.five", 1.0)


def test_evaluate_stays_within_bounds():
    rng = np.random.default_rng(20240817)
    for spec, horizon in (
        ("constant:0.5", 3.0),
        ("affine:0.4,0.2", 1.0),
        ("sin:0.5,0.3,1", 2.0),
        ("table:0,0.3;0.4,0.8;1,0.2", 1.0),
    ):
        idx = StabilityIndex.from_spec(spec, horizon)
        ts = rng.uniform(0.0, horizon, 10_000)
        vals = idx.evaluate_many(ts)
        assert (vals >= idx.beta_inf - 1e-12).all()
        assert (vals <= idx.beta_sup + 1e-12).all()



def _checked_reference(idx, t):
    """evaluate_many with the elementwise domain check and an unconditional clip."""
    tol = 1e-9 * max(1.0, idx.horizon)
    t = np.asarray(t, dtype=float)
    if (t < -tol).any() or (t > idx.horizon + tol).any():
        raise ValueError(f"t outside [0, {idx.horizon}]")
    return idx._raw_eval(np.clip(t, 0.0, idx.horizon))


@pytest.mark.parametrize("spec", ("constant:0.5", "affine:0.4,0.2", "sin:0.5,0.3,1",
                                  "table:0,0.3;0.4,0.8;2,0.2"))
def test_evaluate_many_domain_check_matches_the_elementwise_one(spec):
    h = 2.0
    idx = StabilityIndex.from_spec(spec, h)
    half = 0.5e-9 * h  # half the edge tolerance
    accepted = (
        np.linspace(0.0, h, 41), [-half, 0.3, h + half], [h + half], -half, 0.7, h,
        [np.nan, 0.5], [np.nan, -half, h + half], np.nan, np.empty(0), np.zeros((2, 0)),
        np.array([[0.1, h], [-half, 1.0]]),
    )
    for t in accepted:
        got, want = idx.evaluate_many(t), _checked_reference(idx, t)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)
    for t in ([-4 * half], [h + 4 * half], [np.nan, h + 1.0], [np.nan, -1.0], h + 1.0):
        with pytest.raises(ValueError, match="outside"):
            _checked_reference(idx, t)
        with pytest.raises(ValueError, match="outside"):
            idx.evaluate_many(t)
