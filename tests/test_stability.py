"""Tests for the time-varying stability index families."""

import numpy as np
import pytest

from mssim import StabilityIndex


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
    idx = StabilityIndex("sinusoid", (0.5, 0.3, 1.0), 1.0)
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
    idx = StabilityIndex("sinusoid", (0.5, 0.3, 1.0), 1.0)
    assert idx.beta_inf == pytest.approx(0.2, abs=1e-12)
    assert idx.beta_sup == pytest.approx(0.8, abs=1e-12)


def test_bounds_on_subwindow_hits_interior_extremum():
    idx = StabilityIndex("sinusoid", (0.5, 0.3, 1.0), 1.0)
    lo, hi = idx.bounds_on(0.2, 0.3)  # the maximizer t=0.25 is interior
    assert hi == pytest.approx(0.8, abs=1e-12)
    assert lo < hi


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


def test_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        StabilityIndex.from_spec("parabola:0.5", 1.0)
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

