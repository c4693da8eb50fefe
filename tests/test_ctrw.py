"""Tests for the triangular-array scheme: summands, normings, partial sums,
their inverse, and the composed counting walk."""

import math

import numpy as np
import pytest

from mssim import (
    BernoulliWalk,
    CtrwPath,
    HorizonExceededError,
    RngStream,
    SlowlyVaryingFamily,
    StabilityIndex,
    inverse_ctrw,
    norming_an,
    norming_bnk,
    partial_sum_path,
)
from mssim.ctrw import LOG, UNIT, _jnk_from_uniforms
from mssim.experiments import _ctrw_rep, _map_reps

IDX_HALF = StabilityIndex.from_spec("constant:0.5", 1.0)


def test_family_parsing():
    assert SlowlyVaryingFamily("unit") == UNIT
    assert SlowlyVaryingFamily("log").kind == "log"
    with pytest.raises(ValueError):
        SlowlyVaryingFamily("poly")


def test_sample_jnk_unit_inverse_transform():
    # U = 0.25, beta = 0.5 -> 0.25**-2 = 16
    assert _jnk_from_uniforms([0.25], 0.5, 0.5, UNIT)[0] == pytest.approx(16.0)
    # U -> 1- approaches the support start 1
    assert _jnk_from_uniforms([1.0 - 1e-12], 0.5, 0.5, UNIT)[0] == pytest.approx(1.0, abs=1e-9)


def test_sample_jnk_log_inverts_the_tail():
    # beta = beta_sup = 0.5: the drawn point must satisfy
    # t**-0.5 * max(1, ln t) = U on the decreasing branch
    u = 0.1
    t = _jnk_from_uniforms([u], 0.5, 0.5, LOG)[0]
    assert t > math.exp(2.0)  # beyond the kink
    assert t**-0.5 * math.log(t) == pytest.approx(u, abs=1e-9)


def test_tail_function_unit():
    # P(J > t) = t**-0.5 is 1, 0.5, 0.25 at t = 1, 4, 16, so those tail
    # levels invert to exactly those points
    vals = _jnk_from_uniforms(np.array([1.0, 0.5, 0.25]), 0.5, 0.5, UNIT)
    assert vals.tolist() == [1.0, 4.0, 16.0]


def test_norming_an_unit_closed_form():
    assert norming_an(16, UNIT, 0.8) == pytest.approx(32.0, rel=1e-12)
    assert norming_an(100, UNIT, 0.5) == pytest.approx(10_000.0, rel=1e-12)
    with pytest.raises(ValueError):
        norming_an(0, UNIT, 0.5)
    with pytest.raises(ValueError):
        norming_an(10, UNIT, 1.0)


def test_norming_an_log_residual():
    a = norming_an(100, LOG, 0.5)
    assert abs(a**-0.5 * math.log(a) - 0.01) <= 1e-12
    a_big = norming_an(10**6, LOG, 0.5)
    assert abs(a_big**-0.5 * math.log(a_big) - 1e-6) <= 1e-12 * 1e-6 * 10


def test_norming_bnk():
    assert norming_bnk(32.0, 0.5, 0.8) == pytest.approx(256.0, rel=1e-12)
    assert norming_bnk(17.3, 0.7, 0.7) == 17.3  # exponent exactly 1
    assert norming_bnk(1.0, 0.3, 0.8) == 1.0
    with pytest.raises(ValueError):
        norming_bnk(-1.0, 0.5, 0.5)


def test_partial_sum_path_basics():
    path = partial_sum_path(RngStream(1, 0), 1, 1.0, IDX_HALF, UNIT)
    assert path.grid[0] == 0.0
    # n=1: a_1 = 1, b_11 = 1, so S_1(1) = J_11 >= 1
    assert path.grid[1] >= 1.0
    path = partial_sum_path(RngStream(1, 1), 50, 1.0, IDX_HALF, UNIT)
    assert len(path.grid) == 51
    assert (np.diff(path.grid) > 0).all()
    assert path.horizon == pytest.approx(1.0)


def test_inverse_ctrw_examples():
    path = CtrwPath(2, np.array([0.0, 1.0, 3.0]), IDX_HALF, UNIT)
    assert inverse_ctrw(path, 0.5) == 0.5
    assert inverse_ctrw(path, 3.0) == 1.0
    assert inverse_ctrw(path, 0.0) == 0.0
    with pytest.raises(HorizonExceededError):
        inverse_ctrw(path, 3.5)


def test_inverse_ctrw_monotone_in_level():
    path = partial_sum_path(RngStream(2, 0), 200, 1.0, IDX_HALF, UNIT)
    levels = np.linspace(0.0, path.grid[-1], 100)
    vals = [inverse_ctrw(path, float(r)) for r in levels]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_tail_normalization_identity():
    # n * P(b**-1 J > 1) = 1 for unit L, constant beta = 0.5, n = 100
    n, draws = 100, 200_000
    bound = norming_bnk(norming_an(n, UNIT, 0.5), 0.5, 0.5)
    u = RngStream(3, 0).uniform(draws)
    j = u ** (-1.0 / 0.5)
    p = float((j > bound).mean())
    se = n * math.sqrt(p * (1.0 - p) / draws)
    assert abs(n * p - 1.0) <= 3.0 * se


def test_bernoulli_walk_examples():
    assert BernoulliWalk(RngStream(4, 0), 0.5).value(0.7) == 0
    assert BernoulliWalk(RngStream(4, 0), 1.0).value(5.7) == 5
    with pytest.raises(ValueError):
        BernoulliWalk(RngStream(4, 0), 0.0)
    with pytest.raises(ValueError):
        BernoulliWalk(RngStream(4, 0), 0.5).value(-1.0)


def test_bernoulli_walk_mean():
    t, p, reps = 10_000, 0.3, 1000
    vals = [BernoulliWalk(RngStream(5, r), p).value(t) for r in range(reps)]
    se = math.sqrt(t * p * (1 - p) / reps)
    assert abs(np.mean(vals) - 3000.0) <= 3.0 * se


def test_bernoulli_walk_lazy_extension_is_consistent():
    w1 = BernoulliWalk(RngStream(6, 0), 0.4)
    total = w1.value(200)
    w2 = BernoulliWalk(RngStream(6, 0), 0.4)
    assert w2.value(50) <= total
    assert w2.value(200) == total  # same stream, same steps, any query order


def test_ctrw_process_degenerate_walk():
    # p_n = 1 makes every walk step 1, so the composed walk is floor(lambda * E_n(t));
    # lambda * E_n(t) lies on the grid 1.5 * k / 20, which never comes near an
    # integer above 0, and levels past the last partial sum clamp E_n to the horizon
    out = _map_reps(_ctrw_rep, 50, 1, seed=8, channel=1, idx=IDX_HALF, L=UNIT, n=20,
                    ts=[0.0, 0.05, 0.7, 5.0], p_n=1.0, lam=1.5)
    assert (out["x"] == np.floor(1.5 * out["e"])).all()
    assert (out["x"][:, 0] == 0).all()
    assert out["flagged"].any()
