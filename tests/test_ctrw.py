"""Tests for the triangular-array scheme: summands, normings, partial sums,
their inverse, and the composed counting walk."""

import math
import warnings

import numpy as np
import pytest

from mssim import (
    CtrwPath,
    RngStream,
    RowPlan,
    SlowlyVaryingFamily,
    StabilityIndex,
    inverse_ctrw,
    norming_an,
    norming_bnk,
    partial_sum_path,
)
from mssim import ctrw
from mssim.ctrw import UNIT, _jnk_from_uniforms
from mssim.experiments import _KERNEL_REPS, _ctrw_chunk, _map_reps, stream_for

IDX_HALF = StabilityIndex.from_spec("constant:0.5", 1.0)
LOG = SlowlyVaryingFamily("log")


def _full_path(stream, n):
    """A row-n path of IDX_HALF over its whole horizon 1: the level 1 puts
    every cell in the first piece."""
    return partial_sum_path(stream, RowPlan(n, IDX_HALF, UNIT), IDX_HALF.horizon)


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


def _log_survival(t, beta, beta_sup):
    """The log-family survival the summands are drawn from: the running
    minimum of t**-beta * max(1, (beta/beta_sup) * ln t)."""
    raw = t**-beta * np.maximum(1.0, beta / beta_sup * np.log(t))
    return np.where(t <= math.exp(beta_sup / beta), raw, np.minimum(raw, math.exp(-beta_sup)))


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.5, 0.9])
def test_log_tail_inverse_residual_down_to_tiny_levels(beta):
    # at u = 1e-15 and beta = 0.1 the root is near e**380; 2**-53 is the level
    # RowPlan probes for overflow, and the levels just below the kink
    # exp(-beta_sup) come next to the branch point of W_-1 at beta_sup = 0.99
    for beta_sup in (beta, 0.95, 0.99):
        below_kink = math.exp(-beta_sup) * (1.0 - 10.0 ** -np.arange(1.0, 16.0))
        u = np.concatenate((np.logspace(-15.0, 0.0, 301)[:-1], [2.0**-53], below_kink))
        t = _jnk_from_uniforms(u, beta, beta_sup, LOG)
        assert (np.abs(_log_survival(t, beta, beta_sup) - u) <= 1e-12 * u).all()


def test_log_summands_do_not_depend_on_their_batch():
    # each cell's tail inverse is elementwise, whatever cells share its call
    u = RngStream(23, 0).uniform(20_000)
    beta = np.linspace(0.3, 0.7, u.size)
    whole = _jnk_from_uniforms(u, beta, 0.7, LOG)
    parts = [_jnk_from_uniforms(u[i:i + 500], beta[i:i + 500], 0.7, LOG)
             for i in range(0, u.size, 500)]
    assert np.concatenate(parts).tolist() == whole.tolist()
    assert [_jnk_from_uniforms(u[i], beta[i], 0.7, LOG) for i in range(0, 20_000, 97)] \
        == whole[::97].tolist()


def test_norming_an_log_meets_the_sampled_tail():
    # n * S(a_n) = 1 for the survival S that is sampled; at n = 2 and
    # beta_sup = 0.7 the level 1/2 lies above the kink value exp(-0.7), so
    # a_n is on the initial branch
    assert norming_an(2, LOG, 0.7) == pytest.approx(2.0 ** (1.0 / 0.7), rel=1e-15)
    for beta_sup in np.linspace(0.1, 0.95, 18):
        for n in (2, 3, 10, 100, 10**4, 10**6):
            a = norming_an(n, LOG, float(beta_sup))
            assert abs(n * _log_survival(a, beta_sup, beta_sup) - 1.0) <= 1e-12


def test_norming_bnk():
    assert norming_bnk(32.0, 0.5, 0.8) == pytest.approx(256.0, rel=1e-12)
    assert norming_bnk(17.3, 0.7, 0.7) == 17.3  # exponent exactly 1
    assert norming_bnk(1.0, 0.3, 0.8) == 1.0
    with pytest.raises(ValueError):
        norming_bnk(-1.0, 0.5, 0.5)
    # elementwise for an array of index values, with the same range check
    betas = np.array([0.5, 0.7, 0.8])
    assert norming_bnk(32.0, betas, 0.8).tolist() == [32.0 ** (0.8 / b) for b in betas]
    for bad in (1.0, 0.0, np.nan):
        with pytest.raises(ValueError):
            norming_bnk(32.0, np.array([0.5, bad]), 0.8)


def test_partial_sum_path_basics():
    path = _full_path(RngStream(1, 0), 1)
    assert path.grid[0] == 0.0
    # n=1: a_1 = 1, b_11 = 1, so S_1(1) = J_11 >= 1
    assert path.grid[1] >= 1.0
    path = _full_path(RngStream(1, 1), 50)
    assert len(path.grid) == 51
    assert (np.diff(path.grid) > 0).all()


def test_inverse_ctrw_examples():
    path = CtrwPath(2, np.array([0.0, 1.0, 3.0]))
    e = inverse_ctrw(path, [0.5, 3.0, 0.0, 3.5])
    assert e[:3].tolist() == [0.5, 1.0, 0.0]
    assert np.isnan(e[3])  # past the last partial sum
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            inverse_ctrw(path, [1.0, bad])


def test_inverse_ctrw_monotone_in_level():
    path = _full_path(RngStream(2, 0), 200)
    vals = inverse_ctrw(path, np.linspace(0.0, path.grid[-1], 100))
    assert (np.diff(vals) >= 0).all()


def test_inverse_ctrw_matches_scalar_search():
    # level 0, every grid value, points between them and levels past the last sum
    path = _full_path(RngStream(2, 1), 50)
    g = path.grid
    levels = np.concatenate(([0.0], g, 0.5 * (g[:-1] + g[1:]), [g[-1] * 1.5, g[-1] + 1.0]))
    got = inverse_ctrw(path, levels)
    for r, e in zip(levels, got):
        if r > g[-1]:
            assert np.isnan(e)
        else:
            assert e == float(np.searchsorted(g, r, side="left")) / path.n


def test_tail_normalization_identity():
    # n * P(b**-1 J > 1) = 1 for unit L, constant beta = 0.5, n = 100
    n, draws = 100, 200_000
    bound = norming_bnk(norming_an(n, UNIT, 0.5), 0.5, 0.5)
    u = RngStream(3, 0).uniform(draws)
    j = u ** (-1.0 / 0.5)
    p = float((j > bound).mean())
    se = n * math.sqrt(p * (1.0 - p) / draws)
    assert abs(n * p - 1.0) <= 3.0 * se


@pytest.mark.parametrize("L", [UNIT, LOG])
@pytest.mark.parametrize("n", [100, 10_000])
def test_a_row_whose_partial_sums_overflow_is_rejected_before_its_scalings(L, n, monkeypatch):
    # at beta = 0.01 the summand at the smallest uniform, 2**-53, is not
    # finite, and at n = 10,000 neither is the unit family's a_n = n**100
    def no_scalings(*args):
        raise AssertionError("a b_nk was built")

    monkeypatch.setattr(ctrw, "norming_bnk", no_scalings)
    idx = StabilityIndex.from_spec("constant:0.01", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"row n={n} .* overflow the float range"):
            RowPlan(n, idx, L)


# the path jumps to grid[k] at k/4 and ends at 0.4: E_4(0.25) = 0.75, E_4(0.4) = 1
SHORT = CtrwPath(4, np.array([0.0, 0.1, 0.2, 0.3, 0.4]))
ROW4 = RowPlan(4, IDX_HALF, UNIT)


def _one_rep(rep, **kwargs):
    """Replication ``rep``'s row of ``_ctrw_chunk``, its flag a bool."""
    out = {k: v[0] for k, v in _ctrw_chunk(rep, rep + 1, **kwargs).items()}
    out["flagged"] = bool(out["flagged"])
    return out


def _walk(monkeypatch, rep, ts, p_n, lam):
    """The composed walk of ``_ctrw_chunk`` on the short path above."""
    monkeypatch.setattr(ctrw, "partial_sum_path", lambda *args: SHORT)
    return _one_rep(rep, seed=8, channel=1, idx=IDX_HALF, row=ROW4, ts=ts, p_n=p_n,
                    lam=lam)["x"]


def test_bernoulli_walk_examples(monkeypatch):
    # fewer than one step: lambda * E / p_n = 0.5 * 0.75 / 0.5 < 1
    assert _walk(monkeypatch, 0, [0.25], 0.5, 0.5).tolist() == [0.0]
    # p_n = 1 makes every step 1: floor(4 * 0.75) = 3 and floor(4 * 1) = 4
    assert _walk(monkeypatch, 0, [0.25, 0.4], 1.0, 4.0).tolist() == [3.0, 4.0]


def test_bernoulli_walk_mean(monkeypatch):
    # lambda * E / p_n = 4000 * 0.75 / 0.3 = 10,000 steps of mean 0.3
    t, p, reps = 10_000, 0.3, 1000
    vals = [_walk(monkeypatch, r, [0.25], p, 4000.0)[0] for r in range(reps)]
    se = math.sqrt(t * p * (1 - p) / reps)
    assert abs(np.mean(vals) - 3000.0) <= 3.0 * se


def test_bernoulli_walk_lazy_extension_is_consistent(monkeypatch):
    # both levels read one step sequence, a prefix of the walk stream, in any t order
    up = _walk(monkeypatch, 0, [0.25, 0.4], 0.4, 80.0)
    down = _walk(monkeypatch, 0, [0.4, 0.25], 0.4, 80.0)
    assert up.tolist() == down[::-1].tolist()
    steps = stream_for(8, 2, 0).bernoulli(0.4, 200)
    assert up.tolist() == [steps[:150].sum(), steps.sum()]  # 80 * 0.75 / 0.4 and 80 / 0.4


def test_ctrw_process_degenerate_walk():
    # p_n = 1 makes every walk step 1, so the composed walk is floor(lambda * E_n(t));
    # lambda * E_n(t) lies on the grid 1.5 * k / 20, which never comes near an
    # integer above 0, and levels past the last partial sum clamp E_n to the horizon
    out = _map_reps(_ctrw_chunk, 50, None, _KERNEL_REPS, seed=8, channel=1, idx=IDX_HALF,
                    row=RowPlan(20, IDX_HALF, UNIT), ts=[0.0, 0.05, 0.7, 5.0], p_n=1.0, lam=1.5)
    assert (out["x"] == np.floor(1.5 * out["e"])).all()
    assert (out["x"][:, 0] == 0).all()
    assert out["flagged"].any()


def test_ctrw_rep_clamps_and_flags_an_unreached_level(monkeypatch):
    # the short path ends at 0.4, below the level 1
    monkeypatch.setattr(ctrw, "partial_sum_path", lambda *args: SHORT)
    out = _one_rep(0, seed=8, channel=1, idx=IDX_HALF, row=ROW4, ts=[0.25, 0.3, 1.0],
                   p_n=1.0, lam=1.0)
    assert out["s"].tolist() == [0.1, 0.1, 0.4]
    assert out["e"].tolist() == [0.75, 0.75, IDX_HALF.horizon]
    assert out["x"].tolist() == [0.0, 0.0, 1.0]
    assert out["flagged"] is True
    reached = _one_rep(0, seed=8, channel=1, idx=IDX_HALF, row=ROW4, ts=[0.25, 0.4],
                       p_n=1.0, lam=1.0)
    assert reached["e"].tolist() == [0.75, 1.0] and reached["flagged"] is False


@pytest.mark.parametrize("spec,L", [("constant:0.5", UNIT), ("constant:0.5", LOG),
                                    ("affine:0.4,0.2", UNIT)])
def test_a_row_drawn_until_its_level_is_a_prefix_of_the_whole_row(spec, L):
    # horizon 2.5: a row draws its cells up to n * level, then n/4 at a time until
    # its sum reaches the level; the log family's tail inverse sees other batches
    idx = StabilityIndex.from_spec(spec, 2.5)
    for n in (20, 101):
        row = RowPlan(n, idx, L)
        for rep in range(40):
            whole = partial_sum_path(RngStream(21, rep), row, 1e300).grid
            assert len(whole) == len(row.b) + 1
            grid = partial_sum_path(RngStream(21, rep), row, 1.0).grid
            assert grid.tolist() == whole[:len(grid)].tolist()
            k = len(grid) - 1
            assert k >= n and (grid[-1] >= 1.0 or k == len(row.b))
            # the piece before the last one had not reached the level
            assert k == n or grid[k - n // 4] < 1.0 or k == len(row.b)


def test_a_row_that_never_reaches_its_level_draws_every_cell_and_is_flagged():
    row = RowPlan(50, IDX_HALF, UNIT)
    path = partial_sum_path(RngStream(22, 0), row, 1e12)
    assert len(path.grid) == len(row.b) + 1 == 51 and path.grid[-1] < 1e12
    out = _one_rep(0, seed=22, channel=1, idx=IDX_HALF, row=row, ts=[0.5, 1e12], p_n=1.0,
                   lam=1.0)
    assert out["flagged"] is True and out["e"][1] == IDX_HALF.horizon
