"""Tests for the replication pipelines and report plumbing."""

from concurrent.futures import Future
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mssim import cli, ctrw, experiments, ppp, subordinator
from mssim.experiments import (
    CH_PASSAGE,
    Report,
    _block_passage,
    _increments,
    _increments_chunk,
    _map_reps,
    choose_horizon,
    level_tail_bound,
    plan_passage,
    run_laplace,
    run_mfpp,
    stream_for,
)
from mssim.inverse_mfpp import first_passage
from mssim.stability import StabilityIndex
from mssim.subordinator import gamma_fn


def test_report_csv_layout_and_quoting():
    rep = Report(
        "demo",
        {"beta": "affine:0.4,0.2", "seed": 7},
        ("name", "value", "pass"),
        [("plain", 1.0 / 3.0, True), ("with,comma", 2.0, False)],
    )
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# command=demo"
    assert "# beta=affine:0.4,0.2" in lines
    assert "# seed=7" in lines
    assert lines[-2].startswith("plain,0.33333333333333331,")
    assert '"with,comma"' in lines[-1]  # embedded commas must be quoted
    assert not rep.all_pass()


def test_stream_for_channels_do_not_collide():
    a = stream_for(1, 1, 5)
    b = stream_for(1, 2, 5)
    c = stream_for(1, 1, 6)
    assert len({a.stream_id, b.stream_id, c.stream_id}) == 3
    assert (a.uniform(4) != b.uniform(4)).all()


def test_level_tail_bound_shrinks_with_horizon():
    idx1 = StabilityIndex.from_spec("constant:0.5", 1.0)
    idx5 = StabilityIndex.from_spec("constant:0.5", 5.0)
    near = level_tail_bound(idx1, 1.0)
    far = level_tail_bound(idx5, 1.0)
    assert far < near
    assert far <= 1e-8  # exp(-pi * 25 / 4) for this index


def test_level_tail_bound_splits_a_sin_index_at_its_extrema():
    # on horizon 5, every node of one 201-node rule over [0, 5] is a zero of
    # sin(40*pi*t), which made the c2 = 20 bound read as the constant's
    const = level_tail_bound(StabilityIndex.from_spec("constant:0.5", 5.0), 1.0)
    b19 = level_tail_bound(StabilityIndex.from_spec("sin:0.5,0.2,19", 5.0), 1.0)
    b20 = level_tail_bound(StabilityIndex.from_spec("sin:0.5,0.2,20", 5.0), 1.0)
    assert 0.1 < b19 / b20 < 10.0
    assert max(b19, b20) < 1e-3 * const


@pytest.mark.parametrize("spec, horizon", [("constant:0.5", 1.0), ("constant:0.5", 5.0),
                                           ("affine:0.4,0.2", 1.0), ("affine:0.4,0.2", 1.75)])
def test_level_tail_bound_without_critical_points_is_one_201_node_rule(spec, horizon):
    idx = StabilityIndex.from_spec(spec, horizon)
    s = np.linspace(0.0, horizon, 201)
    w = np.ones(201)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (horizon / 200.0) / 3.0
    beta = idx.evaluate_many(s)
    thetas = np.logspace(-2.0, 8.0, 161)
    exponent = thetas * 1.0 - (thetas[:, None] ** beta[None, :]) @ (w * gamma_fn(1.0 - beta))
    assert level_tail_bound(idx, 1.0) == math.exp(min(0.0, float(exponent.min())))


def test_choose_horizon_constant_and_affine():
    idx, bound = choose_horizon("constant:0.5", 1.0)
    assert idx.horizon >= 4.0
    assert bound <= 1e-8
    idx_a, bound_a = choose_horizon("affine:0.4,0.2", 1.0)
    assert idx_a.beta_sup < 1.0
    assert idx_a.horizon < 3.0  # the index must stay below 1
    assert bound_a <= 1e-8


def test_choose_horizon_raises_the_sin_extrema_cap():
    # level 1 is reached on [0, 4]; level 3 needs [0, 8], where the index has
    # 480 extrema: a shorter horizon with a weaker tail bound is no answer
    idx, bound = choose_horizon("sin:0.5,0.2,30", 1.0)
    assert idx.horizon == 4.0 and bound <= 1e-8
    with pytest.raises(ValueError, match="c2=30 has more than 400 extrema on \\[0, 8\\]"):
        choose_horizon("sin:0.5,0.2,30", 3.0)
    # an index outside (0, 1) on every horizon and a malformed spec keep their messages
    with pytest.raises(ValueError, match="not valid on any horizon"):
        choose_horizon("constant:1.5", 1.0)
    with pytest.raises(ValueError, match="cannot parse"):
        choose_horizon("constant:x", 1.0)


def test_plan_passage_budgets():
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    plan = plan_passage(idx, [1.0])
    assert plan.blocks[0].t0 == 0.0
    assert plan.blocks[-1].t1 == pytest.approx(idx.horizon)
    for a, b in zip(plan.blocks, plan.blocks[1:]):
        assert b.t0 == pytest.approx(a.t1)
    for blk in plan.blocks:
        # each block's excluded sd meets the budget rate; past t = 1 the
        # point cap may trade more sd for fewer points, but binds on none here
        budget = experiments.DEFAULT_MASS_BUDGET * (blk.t1 - blk.t0)
        sd = math.sqrt(ppp.small_jump_variance_window(idx, blk.t0, blk.t1, blk.trunc))
        assert sd <= budget * (1 + 1e-6) and sd == pytest.approx(budget, rel=1e-6)
        if blk.t0 >= 1.0:
            assert blk.mean_count <= experiments._PASSAGE_POINTS_CAP * (1 + 1e-6)
        # the drift is the excluded mass, bin by bin
        assert blk.drift.shape == (experiments._PASSAGE_BINS,) and (blk.drift > 0).all()
        mass = ppp.small_jump_mass_window(idx, blk.t0, blk.t1, blk.trunc)
        assert blk.drift.sum() == pytest.approx(mass, rel=1e-9)
    # the early blocks keep few points, and the drift up to t = 1 is small
    assert [round(b.mean_count) for b in plan.blocks[:4]] == [11, 20, 39, 81]
    assert sum(b.drift.sum() for b in plan.blocks[:4]) == pytest.approx(0.0108, abs=1e-4)


def test_run_laplace_small():
    rep = run_laplace("constant:0.5", [1.0], [1.0], 400, 11)
    assert rep.columns == ("beta_spec", "theta", "t", "mc_mean", "mc_se", "oracle", "pass")
    (row,) = rep.rows
    assert row[5] == pytest.approx(math.exp(-math.sqrt(math.pi)), abs=1e-9)
    assert abs(row[3] - row[5]) <= 3.0 * row[4]
    assert rep.all_pass()


def test_run_laplace_honors_explicit_truncation():
    rep = run_laplace("constant:0.5", [1.0], [1.0], 50, 11, trunc_m=500.0)
    assert rep.header["truncation"] == "stationary:500"
    # beta/(1-beta) * M**(1 - 1/beta)
    assert rep.header["excluded_mass"] == pytest.approx(1.0 / 500.0, rel=1e-9)
    default = run_laplace("constant:0.5", [1.0], [1.0], 50, 11)
    assert default.header["truncation"] == "stationary:12.5"


def test_run_laplace_rows_pass_where_the_dropped_jumps_carry_most_of_the_law():
    # at M = 0.3 the block keeps only jumps above 0.3**(-1/beta), at least
    # 7.4, so the exact factor exp(-R) carries most of each transform
    thetas, ts = (0.5, 1.0, 2.0), (0.5, 1.0)
    rep = run_laplace("affine:0.4,0.2", thetas, ts, 4000, 11, trunc_m=0.3)
    assert rep.all_pass()
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    for _, theta, t, _, _, oracle, _ in rep.rows:
        assert subordinator.dropped_exponent(idx, theta, t, 0.3) > -0.5 * math.log(oracle)


def test_run_laplace_validates_inputs():
    with pytest.raises(ValueError):
        run_laplace("constant:0.5", [1.0], [1.0], 1, 11)  # reps
    with pytest.raises(ValueError):
        run_laplace("constant:0.5", [-1.0], [1.0], 10, 11)  # theta
    with pytest.raises(ValueError):
        run_laplace("constant:0.5", [1.0], [0.0], 10, 11)  # t


def test_run_mfpp_small():
    rep = run_mfpp("constant:0.5", 1.0, [1.0], 400, 13)
    ps = {row[1]: row[2] for row in rep.rows}
    assert 0 in ps
    assert sum(ps.values()) <= 1.0 + 1e-12
    row0 = next(r for r in rep.rows if r[1] == 0)
    assert not math.isnan(row0[4])  # the constant-index oracle is present
    assert rep.header["unreached"] == 0


def _ctrw_ks_samples(monkeypatch, spec, ns):
    """The report of a 200-replication ctrw run at t = 1 and the sample
    pairs its KS rows compared, D, E and X for each n in turn."""
    samples = []
    ks = experiments.stats.ks_two_sample

    def record(a, b):
        samples.append((a, b))
        return ks(a, b)

    monkeypatch.setattr(experiments.stats, "ks_two_sample", record)
    rep = experiments.run_ctrw(spec, ns=ns, ts=(1.0,), reps=200, seed=42, alpha=0.05)
    assert len(samples) == 3 * len(ns)
    for a, b in samples:
        assert len(a) == len(b) == 200
    return rep, samples


def test_run_ctrw_compares_censored_samples(monkeypatch):
    # the table ends at t = 1, so the horizon is 1 and about 30% of the
    # replications never reach the level: E_n is clamped to the horizon,
    # and the reference E must be censored there too, not dropped
    rep, samples = _ctrw_ks_samples(monkeypatch, "table:0,0.3;0.5,0.7;1,0.4", (100, 1000))
    assert rep.header["horizon"] == 1.0 and rep.header["flagged"] > 0
    for a, b in samples[1::3]:  # E_n against E
        assert np.isfinite(b).all() and b.max() <= rep.header["horizon"]


def test_run_ctrw_censors_both_samples_off_the_cell_grid(monkeypatch):
    # the table ends at t = 1.4, so the horizon is 1.25, while the ten
    # cells per unit of the row n = 10 end at 1.3: a passage in (1.25, 1.3]
    # or none at all must read as the horizon on both sides
    rep, samples = _ctrw_ks_samples(monkeypatch, "table:0,0.3;0.5,0.7;1.4,0.4", (10,))
    assert rep.header["horizon"] == 1.25 and rep.header["flagged"] > 0
    _, (a, b), _ = samples
    assert a.max() == b.max() == 1.25


def _no_integrate(*args):
    raise AssertionError("integrate called")


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_truncation called")


def test_mfpp_stationary_truncation_solves_no_block(monkeypatch):
    # under trunc_m every block is stationary at the level M, whose count
    # (t1 - t0) * M is given, so no block truncation is solved
    monkeypatch.setattr(ppp, "solve_truncation", _no_solve)
    rep = run_mfpp("affine:0.4,0.2", 1.0, [1.0], 20, 13, trunc_m=2000.0)
    assert rep.header["horizon"] == 2.5
    assert rep.header["unreached"] == 0


def test_replications_never_integrate(monkeypatch):
    # a block's mean count is planned once; drawing from it integrates nothing
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blocks = [ppp.plan_block(idx, t0, t1, ppp.Truncation("threshold", 1e-3))
              for t0, t1 in ((0.0, 1.0), (0.25, 0.5))]
    monkeypatch.setattr(ppp, "integrate", _no_integrate)
    for rep, blk in enumerate(blocks):
        pat = ppp.sample_threshold([stream_for(1, 1, rep)], blk, idx)
        assert ((pat.times >= blk.t0) & (pat.times <= blk.t1)).all()
    inc = _increments(4, None, 1, 1, idx, blocks[0], [(0.0, 0.5), (0.0, 1.0)])
    assert inc.shape == (4, 2) and (inc[:, 1] >= inc[:, 0]).all()


def test_point_cap_bounds_the_envelope_count():
    # the pure-jump budget block of affine:0.2,0.56 keeps 1.7e6 points on
    # average but needs 2.2e7 thinning candidates, above the cap of 1e7
    idx = StabilityIndex.from_spec("affine:0.2,0.56", 1.0)
    trunc = ppp.solve_truncation(idx, 1.0, "threshold", experiments.DEFAULT_MASS_BUDGET)
    mean_count = ppp.expected_count_window(idx, 0.0, 1.0, trunc)
    envelope = trunc.parameter ** -0.76  # the constant envelope at sup beta = 0.76
    assert mean_count < ppp.MAX_POINTS < envelope
    with pytest.raises(ValueError, match="points per replication") as err:
        ppp.plan_block(idx, 0.0, 1.0, trunc)
    assert f"{envelope:.3g} points" in str(err.value) and "\n" not in str(err.value)


def test_run_cap_weighs_a_plan_only_where_weights_of_one_fail(monkeypatch):
    # twenty blocks of 1,000 points: at weight 1 the run cap of 2e9 holds
    # 100,000 replications; past that, each later block counts times its
    # level_tail_bound, at most 1, one bound per block
    idx = StabilityIndex.from_spec("constant:0.5", 5.0)
    trunc = ppp.Truncation("stationary", 4000.0)
    plan = experiments.PassagePlan(idx, (1.0,), tuple(
        ppp.Block(t0, t0 + 0.25, trunc, 1000.0, 0.5) for t0 in np.arange(20) * 0.25))
    calls = []
    monkeypatch.setattr(experiments, "level_tail_bound",
                        lambda *args: calls.append(args) or level_tail_bound(*args))
    experiments._check_run_points(100_000, 0.0, plan)
    assert calls == []
    experiments._check_run_points(100_001, 0.0, plan)
    assert len(calls) == 19
    with pytest.raises(ValueError, match="points per replication"):
        experiments._check_run_points(10**7, 0.0, plan)


def _draw_alone(stream, blk, idx):
    """One stream's pattern of ``blk`` written out by hand, the oracle of
    ``ppp.sample_pattern``: a Poisson count of uniform times, thinned in one
    pass under threshold truncation, then the sizes; (times, sizes)."""
    p, beta = blk.trunc.parameter, idx.evaluate_many
    if blk.trunc.mode == "stationary":
        k = stream.poisson(blk.mean_count)
        t = blk.t0 + (blk.t1 - blk.t0) * stream.uniform(k)
        return t, (p * stream.uniform(k)) ** (-1.0 / beta(t))
    k = stream.poisson((blk.t1 - blk.t0) * p ** -blk.sup_beta)
    t = blk.t0 + (blk.t1 - blk.t0) * stream.uniform(k)
    t = t[stream.uniform(k) < p ** (blk.sup_beta - beta(t))]
    return t, p * stream.uniform(len(t)) ** (-1.0 / beta(t))


def _inline_patterns(stream, plan):
    """The block draws of ``_draw_alone``: one (times, sizes, block) triple
    per block, drawn only when the caller asks for the next block."""
    for blk in plan.blocks:
        yield (*_draw_alone(stream, blk, plan.idx), blk)


def _sorted_passage(patterns, levels):
    """The sorted kernel: each block's points sorted by time, a running
    prefix sum across blocks, then first passage.

    A compensated block's path also carries its cumulative drift, linear in
    each drift bin.  Its events are the jumps and the bin ends; between two
    events the path is the line from the value after the first to the value
    before the second, and a level that line reaches is interpolated on it."""
    levels = np.asarray(levels)
    e = np.full(len(levels), np.nan)
    total = 0.0
    nxt = 0
    for t, x, blk in patterns:
        if blk.drift is not None:
            edges = np.linspace(blk.t0, blk.t1, len(blk.drift) + 1)
            ev = np.concatenate((t, edges[1:]))
            size = np.concatenate((x, np.zeros(len(edges) - 1)))
            order = np.argsort(ev, kind="stable")
            ev, size = ev[order], size[order]
            drift = np.interp(ev, edges, np.concatenate(([0.0], np.cumsum(blk.drift))))
            before = total + np.cumsum(size) - size + drift
            after = before + size
            for i in range(nxt, len(levels)):
                j = np.searchsorted(after, levels[i], side="left")
                if j == len(ev):
                    break
                if before[j] < levels[i]:
                    e[i] = ev[j]
                else:
                    t_prev, v_prev = (ev[j - 1], after[j - 1]) if j else (blk.t0, total)
                    e[i] = t_prev + (levels[i] - v_prev) / (before[j] - v_prev) * (ev[j] - t_prev)
                nxt = i + 1
            total = float(after[-1])
        elif len(t):
            order = np.argsort(t)
            prefix = total + np.cumsum(x[order])
            e[nxt:] = first_passage(t[order], prefix, levels[nxt:])
            nxt = int(np.count_nonzero(~np.isnan(e)))
            total = float(prefix[-1])
        if nxt >= len(levels):
            break
    return e


def _inline_block_passage(stream, plan):
    return _sorted_passage(_inline_patterns(stream, plan), plan.levels)


_KERNEL_PLANS = (  # spec, levels, replications, horizon
    ("affine:0.4,0.2", [0.05, 0.3, 1.0], 12, 2.5),
    ("constant:0.5", [0.5, 1.0], 12, 5.0),
    ("sin:0.5,0.2,1", [0.3, 1.0], 4, 4.0),
)


def test_block_passage_equals_the_inline_kernel():
    for spec, levels, reps, horizon in _KERNEL_PLANS:
        idx, _ = choose_horizon(spec, max(levels))
        plan = plan_passage(idx, levels)
        assert idx.horizon == horizon and len(plan.blocks) == 4 * horizon
        es = []
        for rep in range(reps):
            got = _block_passage([stream_for(5, CH_PASSAGE, rep)], plan)[0]
            want = _inline_block_passage(stream_for(5, CH_PASSAGE, rep), plan)
            # the two sum the drift in different orders
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11,
                                       err_msg=f"{spec} rep {rep}")
            es.append(got)
        # the passages spread over several blocks
        assert len({int(v // 0.25) for v in np.ravel(es)}) >= 3


def test_block_passage_of_the_stationary_plan_equals_the_inline_kernel():
    # the plan of ``mfpp --trunc-m``: compensated stationary blocks at one level
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    plan = plan_passage(idx, (0.05, 0.3, 1.0), trunc_m=2000.0)
    for rep in range(12):
        got = _block_passage([stream_for(5, CH_PASSAGE, rep)], plan)[0]
        want = _inline_block_passage(stream_for(5, CH_PASSAGE, rep), plan)
        np.testing.assert_array_equal(got, want)
        assert not np.isnan(got).any()


def test_block_passage_of_a_zero_drift_plan_equals_the_inline_kernel():
    # at an index of 0.01, M = 1e4 excludes a mass of about 1e-398 per unit
    # time, which underflows to 0 in every bin: every crossing takes the
    # zero-drift bin sums
    idx, _ = choose_horizon("constant:0.01", 1.0)
    plan = plan_passage(idx, [1.0], trunc_m=10000.0)
    assert all(blk.drift is not None and not blk.drift.any() for blk in plan.blocks)
    for rep in range(12):
        got = _block_passage([stream_for(5, CH_PASSAGE, rep)], plan)[0]
        want = _inline_block_passage(stream_for(5, CH_PASSAGE, rep), plan)
        np.testing.assert_array_equal(got, want)
        assert not np.isnan(got).any()


def _fixed_block_passage(monkeypatch, windows, patterns, levels, drift=None):
    """``_block_passage`` over the given (times, sizes) pattern of each
    window, each block with the given drift, and the sorted kernel over the
    same patterns."""
    draws = iter(patterns)

    def fixed(streams, blk, idx):
        t, x = next(draws)
        return ppp.PointPattern(t, x, np.array([len(t)]))

    monkeypatch.setattr(ppp, "sample_pattern", fixed)
    blocks = tuple(ppp.Block(t0, t1, ppp.Truncation("threshold", 0.01), 1.0, 0.5, drift)
                   for t0, t1 in windows)
    got = _block_passage([None], experiments.PassagePlan(None, tuple(levels), blocks))[0]
    return got, _sorted_passage(((*p, b) for p, b in zip(patterns, blocks)), levels)


def test_block_passage_scans_the_crossing_bin_from_the_earlier_bins(monkeypatch):
    # dyadic sizes sum exactly in any order; a bin is 1/256 wide on [0, 1]
    w = 1.0 / 256
    t = np.array([0.9, 10.5 * w, 10.25 * w, 3.5 * w, 10.75 * w, 0.5 * w, 200.5 * w, 10.5 * w])
    x = np.array([0.5, 0.125, 0.0625, 0.25, 0.03125, 0.25, 0.5, 0.125])
    # the time-sorted prefix is 0.25, 0.5 | 0.5625, 0.8125, 0.84375 | 1.34375 | 1.84375;
    # five levels fall in bin 10, one equal to a partial sum, with a tie at 10.5 w
    levels = [0.26, 0.5, 0.55, 0.5625, 0.6, 0.8, 0.84375, 1.0, 1.84375, 2.0]
    got, want = _fixed_block_passage(monkeypatch, [(0.0, 1.0)], [(t, x)], levels)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        got, [3.5 * w, 3.5 * w, 10.25 * w, 10.25 * w, 10.5 * w, 10.5 * w, 10.75 * w,
              200.5 * w, 0.9, np.nan])


def test_block_passage_skips_blocks_below_the_level_and_leaves_unreached_levels_nan(monkeypatch):
    # the first block ends below every level, the empty one adds nothing and
    # the last crosses two levels at a tie in its last bin; the top level is
    # never reached
    windows = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75)]
    patterns = [(np.array([0.2, 0.1]), np.array([0.25, 0.5])),
                (np.empty(0), np.empty(0)),
                (np.array([0.7499, 0.6, 0.7499]), np.array([0.125, 0.0625, 0.0625]))]
    got, want = _fixed_block_passage(monkeypatch, windows, patterns, [0.9, 1.0, 1.5])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, [0.7499, 0.7499, np.nan])


def test_block_passage_reaches_a_level_by_drift_between_jumps(monkeypatch):
    # a drift of 1 per unit time on [0, 1] and on [1, 2], 2**-8 in each bin,
    # with jumps of 0.25 at t = 0.5 and 0.125 at t = 1.5: D(t) = t before 0.5
    drift = np.full(experiments._PASSAGE_BINS, 2.0**-8)
    windows = [(0.0, 1.0), (1.0, 2.0)]
    patterns = [(np.array([0.5]), np.array([0.25])), (np.array([1.5]), np.array([0.125]))]
    levels = [0.125, 0.5, 0.6, 0.8, 1.25, 1.252, 1.3, 1.8, 2.0, 2.375, 2.5]
    got, want = _fixed_block_passage(monkeypatch, windows, patterns, levels, drift)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # by drift, at the jump, by drift after it, at the block end, by drift in
    # the next block's first bin and later, at its jump, by drift after it
    # and at its end; the top level is never reached
    np.testing.assert_allclose(got, [0.125, 0.5, 0.5, 0.55, 1.0, 1.002, 1.05, 1.5, 1.625, 2.0,
                                     np.nan], rtol=0.0, atol=1e-12)


def test_block_passage_finds_the_last_jump_where_the_time_order_sum_rounds_low(monkeypatch):
    # one bin holds all three jumps; bincount adds them in array order, to
    # 1 + 2**-52, and the time order adds 1.0 first, which absorbs each 1e-16
    w = 1.0 / 256
    t = np.array([10.75 * w, 10.5 * w, 10.25 * w])
    x = np.array([1e-16, 1e-16, 1.0])
    top = float(np.bincount(np.zeros(3, np.intp), weights=x)[0])
    assert np.cumsum(x[::-1])[-1] == 1.0 < top
    got, _ = _fixed_block_passage(monkeypatch, [(0.0, 1.0)], [(t, x)], [1.0, top])
    np.testing.assert_array_equal(got, [10.25 * w, 10.75 * w])


def _passage_plans():
    """A threshold plan whose passages spread over several blocks, and the
    stationary plan of ``mfpp --trunc-m 4000``, of 1,000 points a block."""
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    return (plan_passage(idx, [0.05, 0.3, 1.0]),
            plan_passage(idx, [0.05, 0.3, 1.0], trunc_m=4000.0))


def _one_rep_passages(lo, hi, **kwargs):
    """``_passage_chunk``'s arrays for [lo, hi), one replication a call."""
    parts = [experiments._passage_chunk(rep, rep + 1, **kwargs) for rep in range(lo, hi)]
    return {k: np.concatenate([p[k] for p in parts]) for k in ("e", "x")}


@pytest.mark.parametrize("which", ("threshold", "stationary"))
def test_passage_chunk_is_the_stack_of_its_one_replication_calls(which, monkeypatch):
    plan = _passage_plans()[which == "stationary"]
    kwargs = dict(seed=4, plan=plan, rate=2.0)
    want = _one_rep_passages(0, 40, **kwargs)
    assert np.isnan(want["e"]).sum() < want["e"].size
    # a few streams a group, so every block is drawn in several groups
    monkeypatch.setattr(experiments, "_KERNEL_POINTS", 3 * ppp.drawn_count(plan.blocks[0]))
    got = experiments._passage_chunk(0, 40, **kwargs)
    with experiments.ProcessPoolExecutor(max_workers=2) as pool:
        pooled = _map_reps(experiments._passage_chunk, 40, pool, experiments._KERNEL_REPS,
                           **kwargs)
    for k in ("e", "x"):
        assert got[k].tobytes() == want[k].tobytes() == pooled[k].tobytes(), k


def test_passage_groups_stay_near_the_kernel_points(monkeypatch):
    # each block is drawn in groups of at most _KERNEL_POINTS expected
    # points, or one stream where one stream expects more
    draw = ppp.sample_pattern
    groups = []

    def recording(streams, blk, idx):
        groups.append((len(streams), ppp.drawn_count(blk)))
        return draw(streams, blk, idx)

    monkeypatch.setattr(ppp, "sample_pattern", recording)
    for plan in _passage_plans():
        streams = [stream_for(6, CH_PASSAGE, rep) for rep in range(300)]
        _block_passage(streams, plan)
    points = experiments._KERNEL_POINTS
    assert all(n * drawn <= max(points, drawn) for n, drawn in groups)
    # the early threshold blocks group many streams; a stationary block
    # takes eight at a time
    assert max(n for n, _ in groups) > 100
    assert groups.count((8, 1000.0)) >= 300 // 8


def test_streams_that_cross_in_different_blocks_pass_as_they_do_alone():
    # four streams: the top level crossed in three different blocks, and
    # never by the fourth, on the first four blocks of the plan
    idx, _ = choose_horizon("constant:0.5", 1.0)
    full = plan_passage(idx, [0.2, 1.0])
    plan = experiments.PassagePlan(idx, full.levels, full.blocks[:4])
    alone = {rep: _block_passage([stream_for(8, CH_PASSAGE, rep)], plan)[0] for rep in range(60)}
    picked = {}
    for rep, e in alone.items():
        picked.setdefault(-1 if np.isnan(e[1]) else int(e[1] // 0.25), rep)
    assert len(picked) >= 4 and -1 in picked
    reps = [picked[-1], *sorted(v for k, v in picked.items() if k >= 0)[:3]]
    got = _block_passage([stream_for(8, CH_PASSAGE, rep) for rep in reps], plan)
    assert got.tobytes() == np.array([alone[rep] for rep in reps]).tobytes()


def test_mfpp_oracle_follows_the_index_values_not_its_family():
    # affine:0.5,0 is the constant index 0.5 under another family name
    constant = run_mfpp("constant:0.5", 1.0, [1.0], 200, 13)
    affine = run_mfpp("affine:0.5,0", 1.0, [1.0], 200, 13)
    row0 = next(r for r in affine.rows if r[1] == 0)
    assert row0 == next(r for r in constant.rows if r[1] == 0)
    assert not math.isnan(row0[4])


def test_count_inversions():
    assert experiments._count_inversions([3.0, 2.0, 1.0]) == 0
    assert experiments._count_inversions([1.0, 2.0, 1.5]) == 1
    assert experiments._count_inversions([1.0, 2.0, 3.0]) == 2


def test_worker_count_never_changes_results():
    kwargs = dict(thetas=[1.0], ts=[1.0], reps=300, seed=21)
    serial = run_laplace("constant:0.5", **kwargs, workers=1).to_csv()
    parallel = run_laplace("constant:0.5", **kwargs, workers=3).to_csv()
    assert serial == parallel


class _InlinePool:
    """An executor that records its size, its submits and its shutdowns, and
    runs each call at submit, keeping its result or its error in a future."""

    sizes = []
    calls = []
    exits = 0

    def __init__(self, max_workers):
        self._max_workers = max_workers
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        type(self).exits += 1
        return False

    def submit(self, fn, *args):
        self.calls.append((fn, args))
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


@pytest.fixture
def inline_pool(monkeypatch):
    """No real pool is started: runs get an ``_InlinePool`` with clean records."""
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes.clear()
    _InlinePool.calls.clear()
    _InlinePool.exits = 0
    return _InlinePool


def test_pool_size_is_bounded_by_chunks_and_cpus(inline_pool, monkeypatch):
    # a huge worker count must not become a huge pool
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    kwargs = dict(seed=4, channel=1, idx=StabilityIndex.from_spec("constant:0.5", 1.0),
                  windows=[(0.0, 1.0)])
    kwargs["blk"] = ppp.plan_block(kwargs["idx"], 0.0, 1.0, ppp.Truncation("stationary", 50.0))
    serial = _increments(128, None, **kwargs)
    for workers, size in ((100_000, 3), (2, 2)):
        inline_pool.calls.clear()
        with experiments._open_pool(workers, 128) as pool:
            pooled = _increments(128, pool, **kwargs)
        assert pooled.tobytes() == serial.tobytes()
        assert inline_pool.sizes[-1] == size
    # about eight chunks per process, of at least 16 replications, in rep order:
    # 128 replications on two processes make eight chunks of 16
    spans = [args[1:3] for fn, args in inline_pool.calls]
    assert spans == [(lo, lo + 16) for lo in range(0, 128, 16)]
    # fewer than two chunks of 16 run serially: a run of them builds no
    # pool, and a smaller map on a shared pool submits nothing
    inline_pool.calls.clear()
    with experiments._open_pool(2, 31) as pool:
        assert pool is None
    assert inline_pool.sizes == [3, 2]
    with experiments._open_pool(2, 128) as pool:
        _increments(31, pool, **kwargs)
    assert not inline_pool.calls


def test_a_run_builds_one_pool_and_one_worker_builds_none(inline_pool):
    ctrw_args = ("constant:0.5", "unit", [100, 1000, 10000], [1.0], 128, 3)
    serial = experiments.run_ctrw(*ctrw_args, workers=1).to_csv()
    assert inline_pool.sizes == []
    # the D reference, the plan, the passage replications and the three n rows
    # share one pool
    assert experiments.run_ctrw(*ctrw_args, workers=2).to_csv() == serial
    assert inline_pool.sizes == [2] and inline_pool.exits == 1
    submitted = {fn for fn, _ in inline_pool.calls}
    assert submitted == {experiments._map_chunk, experiments._passage_block}
    run_mfpp("constant:0.5", 1.0, [1.0], 64, 3, workers=2)
    assert inline_pool.sizes == [2, 2] and inline_pool.exits == 2


def test_a_pool_capped_at_one_process_is_not_built(inline_pool, monkeypatch):
    # on one CPU, two workers run serially: no pool, no chunk pickled
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
    with experiments._open_pool(2, 64) as pool:
        assert pool is None
    ctrw_args = ("constant:0.5", "unit", [100, 1000], [1.0], 64, 3)
    serial = experiments.run_ctrw(*ctrw_args, workers=1).to_csv()
    assert experiments.run_ctrw(*ctrw_args, workers=2).to_csv() == serial
    assert inline_pool.sizes == [] and inline_pool.calls == []


def _failing_kernel(lo, hi):
    raise ValueError(f"chunk [{lo}, {hi}) failed")


def test_a_chunk_that_raises_in_a_real_pool_leaves_no_process_running(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match=r"chunk \[0, 16\) failed"):
        with experiments._open_pool(2, 128) as pool:
            assert pool is not None
            _map_reps(_failing_kernel, 128, pool, experiments._KERNEL_REPS)
    assert multiprocessing.active_children() == []


def test_pooled_paths_write_the_serial_bytes(tmp_path, monkeypatch, capsys):
    # 40 replications reach the pool in three chunks, whose file names are
    # joined across chunks; every summary and trajectory byte stays serial
    outputs = []
    for workers in ("1", "2"):
        cwd = tmp_path / workers
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli.main(["paths", "--beta", "constant:0.5", "--grid", "5", "--reps", "40",
                         "--seed", "3", "--out", "traj", "--workers", workers]) == 0
        files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert len(outputs[0][1]) == 40
    assert outputs[0] == outputs[1]


def test_the_pool_is_shut_down_when_a_plan_block_raises(inline_pool, monkeypatch):
    solve = experiments._passage_block

    def failing_block(idx, t0, t1, trunc_m=None):
        if t0 >= 0.5:
            raise ValueError("too many points")
        return solve(idx, t0, t1, trunc_m)

    monkeypatch.setattr(experiments, "_passage_block", failing_block)
    with pytest.raises(ValueError, match="too many points"):
        run_mfpp("affine:0.4,0.2", 1.0, [1.0], 64, 3, workers=2)
    assert inline_pool.sizes == [2] and inline_pool.exits == 1


def test_the_plan_submits_its_latest_windows_first(inline_pool):
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    serial = plan_passage(idx, [1.0])
    with experiments._open_pool(2, 64) as pool:
        pooled = plan_passage(idx, [1.0], pool)
    starts = [args[1] for fn, args in inline_pool.calls]
    assert starts == [2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5, 0.25, 0.0]
    assert _fields(pooled) == _fields(serial)


def _fields(plan):
    """Every field of every block of a plan, the drift as its bytes."""
    return [(b.t0, b.t1, b.trunc, b.mean_count, b.sup_beta, b.drift.tobytes())
            for b in plan.blocks]


class _DeferredFuture(Future):
    """A future whose call runs when its result is first read."""

    def __init__(self, fn, args):
        super().__init__()
        self._call = fn, args

    def result(self, timeout=None):
        if not self.done():
            fn, args = self._call
            try:
                self.set_result(fn(*args))
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class _DeferredPool(_InlinePool):
    """An ``_InlinePool`` whose calls wait in their futures until read, as
    queued calls wait for a busy pool."""

    futures = []

    def submit(self, fn, *args):
        self.calls.append((fn, args))
        self.futures.append(_DeferredFuture(fn, args))
        return self.futures[-1]


def test_a_plan_block_that_raises_cancels_the_queued_windows(inline_pool, monkeypatch, capsys):
    # no compensated block of a valid index passes the point cap, so it is
    # lowered below the envelope count of [0.75, 1] (1,266) and above those
    # of the earlier windows
    monkeypatch.setattr(ppp, "MAX_POINTS", 1000.0)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _DeferredPool)
    monkeypatch.setattr(_DeferredPool, "futures", [])
    monkeypatch.setattr(_DeferredPool, "exits", 0)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["mfpp", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "64", "--workers",
                  "2"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2  # usage + error
    assert "points per replication expected on [0.75, 1]" in err[1]
    # the windows in time order: those before the failing one ran, the one
    # after it was cancelled unstarted, and the pool was shut down
    starts = [args[1] for fn, args in inline_pool.calls][::-1]
    futures = _DeferredPool.futures[::-1]
    assert starts == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [f.cancelled() for f in futures] == [False] * 4 + [True]
    assert futures[3].exception() is not None
    assert _DeferredPool.exits == 1


def test_a_replication_chunk_that_raises_cancels_the_queued_chunks(inline_pool, monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _DeferredPool)
    monkeypatch.setattr(_DeferredPool, "futures", [])
    ran = []

    def kernel(lo, hi):
        ran.append(lo)
        if lo == 0:
            raise ValueError("the first chunk failed")
        return {"x": np.zeros(hi - lo)}

    # 128 replications make eight chunks of 16; the first one's error
    # surfaces, and the seven after it are cancelled unrun
    with experiments._open_pool(2, 128) as pool:
        with pytest.raises(ValueError, match="the first chunk failed"):
            _map_reps(kernel, 128, pool, experiments._KERNEL_REPS)
    assert ran == [0]
    assert [f.cancelled() for f in _DeferredPool.futures] == [False] + [True] * 7


def test_a_plan_in_a_real_pool_equals_the_serial_plan():
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    serial = plan_passage(idx, [1.0])
    with experiments.ProcessPoolExecutor(max_workers=2) as pool:
        pooled = plan_passage(idx, [1.0], pool)
    assert len(serial.blocks) == 10
    # compensated blocks stay far below the point cap past t = 1
    assert max(b.mean_count for b in serial.blocks) < 0.1 * experiments._PASSAGE_POINTS_CAP
    assert _fields(pooled) == _fields(serial)


def test_a_stationary_plan_is_compensated_windows_at_one_level():
    # the plan of ``mfpp --trunc-m 2000``: a 0.25 stationary window at the
    # level M per block, each with the positive, finite mass of its bins as
    # its drift, the same when its blocks are solved in a real pool
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    serial = plan_passage(idx, [1.0], trunc_m=2000.0)
    with experiments.ProcessPoolExecutor(max_workers=2) as pool:
        pooled = plan_passage(idx, [1.0], pool, 2000.0)
    assert len(serial.blocks) == 10
    for k, blk in enumerate(serial.blocks):
        assert (blk.t0, blk.t1) == (0.25 * k, 0.25 * (k + 1))
        assert blk.trunc == ppp.Truncation("stationary", 2000.0) and blk.mean_count == 500.0
        assert blk.drift.shape == (experiments._PASSAGE_BINS,)
        assert (blk.drift > 0.0).all() and np.isfinite(blk.drift).all()
        mass = ppp.small_jump_mass_window(idx, blk.t0, blk.t1, blk.trunc)
        assert blk.drift.sum() == pytest.approx(mass, rel=1e-9)
    assert _fields(pooled) == _fields(serial)


@pytest.mark.parametrize("trunc_m", (0.0, -1.0, math.nan, math.inf))
def test_mfpp_rejects_a_bad_level_before_the_pool_opens(trunc_m, inline_pool):
    # and so does laplace, whose level is checked at entry as well
    with pytest.raises(ValueError, match="trunc-m must be positive and finite"):
        run_mfpp("constant:0.5", 1.0, [1.0], 64, 3, workers=2, trunc_m=trunc_m)
    with pytest.raises(ValueError, match="trunc-m must be positive and finite"):
        run_laplace("constant:0.5", [1.0], [1.0], 64, 3, workers=2, trunc_m=trunc_m)
    assert inline_pool.sizes == []


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
def test_increments_equal_the_two_mask_sums_bit_for_bit(mode):
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = experiments._budget_block(idx, 1.0, mode, 12)
    # (0, t < T], (0, T], (0, b > T] and windows with a > 0
    windows = [(0.0, 0.3), (0.0, 0.95), (0.0, 1.0), (0.0, 2.0), (0.25, 0.75), (0.5, 1.0)]
    for rep in range(12):
        t, x = _draw_alone(stream_for(5, 1, rep), blk, idx)
        want = np.array([_draw_order_sum(x[(t > a) & (t <= b)]) for a, b in windows])
        got = _increments_chunk(rep, rep + 1, 5, 1, idx, blk, windows)["inc"]
        assert got.shape == (1, len(windows)) and got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
def test_sample_pattern_draws_each_stream_as_it_draws_alone(mode):
    # about 5 points a stream, so some streams draw none; each stream is left
    # where drawing alone leaves it, for the uniforms a caller draws next
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = ppp.plan_block(idx, 0.0, 1.0, KERNEL_BLOCKS[mode][0])
    streams = [stream_for(11, 2, rep) for rep in range(300)]
    pat = ppp.sample_pattern(streams, blk, idx)
    assert len(pat.counts) == 300 and (pat.counts == 0).any()
    cut = np.cumsum(pat.counts)[:-1]
    for rep, (s, t, x) in enumerate(zip(streams, np.split(pat.times, cut),
                                        np.split(pat.sizes, cut))):
        alone = stream_for(11, 2, rep)
        want_t, want_x = _draw_alone(alone, blk, idx)
        assert t.tobytes() == want_t.tobytes() and x.tobytes() == want_x.tobytes()
        assert s.uniform(200).tobytes() == alone.uniform(200).tobytes()


def _draw_order_sum(v):
    """The sum of ``v``, added one value at a time in array order."""
    total = 0.0
    for y in v.tolist():
        total += y
    return total


def _one_rep_rows(lo, hi, **kwargs):
    """The kernel's rows for [lo, hi), one replication a call; each must be
    the draw-order sums of the replication's own pattern, drawn alone, in
    each window."""
    rows = np.vstack([_increments_chunk(rep, rep + 1, **kwargs)["inc"] for rep in range(lo, hi)])
    for rep, row in zip(range(lo, hi), rows):
        t, x = _draw_alone(stream_for(kwargs["seed"], kwargs["channel"], rep), kwargs["blk"],
                           kwargs["idx"])
        assert row.tobytes() == np.array([_draw_order_sum(x[(t > a) & (t <= b)])
                                          for a, b in kwargs["windows"]]).tobytes()
    return rows


# about 5, 40 and 500 points a replication, where numpy's own sum would add
# in sequence, with eight partial sums and pairwise
KERNEL_BLOCKS = {
    "stationary": [ppp.Truncation("stationary", m) for m in (5.0, 40.0, 500.0)],
    "threshold": [ppp.Truncation("threshold", eps) for eps in (0.04, 6e-4, 4e-6)],
}


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
@pytest.mark.parametrize("level", range(3))
def test_increments_chunk_is_the_stack_of_its_one_replication_calls(mode, level):
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = ppp.plan_block(idx, 0.0, 1.0, KERNEL_BLOCKS[mode][level])
    assert [5, 40, 500][level] / 2 < blk.mean_count < [5, 40, 500][level] * 2
    # (0, t < T], (0, T], (0, t > T] and (a, b] windows
    kwargs = dict(seed=9, channel=3, idx=idx, blk=blk,
                  windows=[(0.0, 0.4), (0.0, 1.0), (0.0, 1.5), (0.2, 0.7), (0.6, 1.0)])
    lo, hi = 17, 17 + (40 if level < 2 else 12)
    got = _increments_chunk(lo, hi, **kwargs)["inc"]
    assert got.tobytes() == _one_rep_rows(lo, hi, **kwargs).tobytes()
    # an empty window sums to +0.0
    assert np.signbit(got).sum() == 0


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
def test_increments_cross_kernel_calls_and_pools_bit_for_bit(mode, monkeypatch):
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = ppp.plan_block(idx, 0.0, 1.0, KERNEL_BLOCKS[mode][1])
    kwargs = dict(seed=2, channel=4, idx=idx, blk=blk, windows=[(0.0, 0.5), (0.25, 1.0)])
    want = _one_rep_rows(0, 40, **kwargs)
    with experiments.ProcessPoolExecutor(max_workers=2) as pool:
        pooled = _increments(40, pool, **kwargs)
    assert pooled.tobytes() == want.tobytes()
    ranges = []

    def recording(lo, hi, **params):
        ranges.append((lo, hi))
        return _increments_chunk(lo, hi, **params)

    monkeypatch.setattr(experiments, "_increments_chunk", recording)
    monkeypatch.setattr(experiments, "_KERNEL_REPS", 7)
    assert _increments(40, None, **kwargs).tobytes() == want.tobytes()
    assert ranges == [(lo, min(lo + 7, 40)) for lo in range(0, 40, 7)]


def test_kernel_reps_are_total_in_the_mean_point_count():
    # a zero or subnormal mean gets the replication cap, not a division by
    # zero or an overflowing int
    full = experiments._KERNEL_POINTS / experiments._KERNEL_REPS
    for points in (0.0, 5e-324, 1e-310, 1.0, full):
        assert experiments._reps_for(points) == experiments._KERNEL_REPS, points
    assert experiments._reps_for(np.nextafter(full, math.inf)) == experiments._KERNEL_REPS - 1
    assert experiments._reps_for(1000.0) == 8
    for points in (experiments._KERNEL_POINTS, 1e300, math.inf):
        assert experiments._reps_for(points) == 1, points


def test_keyed_sums_add_each_key_in_array_order():
    # the window sums and the passage bins rely on it, contiguous runs and
    # interleaved keys alike; a numpy that breaks it fails here
    gen = np.random.default_rng(3)
    for length in range(301):
        x = gen.pareto(0.5, 5 * length)
        for keys in (np.repeat(np.arange(5), length), gen.permutation(5 * length) % 5):
            got = np.bincount(keys, weights=x, minlength=5)
            want = np.array([_draw_order_sum(x[keys == k]) for k in range(5)])
            assert got.tobytes() == want.tobytes(), length


def test_a_serial_run_is_worked_in_bounded_kernel_calls(monkeypatch):
    # 20,000 replications are not one array of all their points: at about 7
    # points a replication the kernel gets 1,024 of them a call, and at
    # 1,000 points the 2**13 point bound makes it 8
    widest = []

    def recording(lo, hi, **params):
        widest.append(hi - lo)
        return _increments_chunk(lo, hi, **params)

    monkeypatch.setattr(experiments, "_increments_chunk", recording)
    rep = run_laplace("constant:0.5", [1.0], [1.0], 20_000, 1, trunc_m=7.0)
    assert float(rep.header["truncation"].partition(":")[2]) < experiments._KERNEL_POINTS / 1024
    assert max(widest) == experiments._KERNEL_REPS == 1024 and sum(widest) == 20_000
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    blk = ppp.plan_block(idx, 0.0, 1.0, ppp.Truncation("stationary", 1000.0))
    widest.clear()
    _increments(600, None, 1, 1, idx, blk, [(0.0, 1.0)])
    assert widest == [8] * 75


def test_a_passage_call_joins_about_its_kernel_points_of_arrivals(monkeypatch):
    # a passage kernel call joins the Poisson arrivals of its replications:
    # lambda * horizon = 2,000 arrivals a replication makes it 4 a call
    widest = []
    passage = experiments._passage_chunk

    def recording(lo, hi, **params):
        widest.append(hi - lo)
        return passage(lo, hi, **params)

    monkeypatch.setattr(experiments, "_passage_chunk", recording)
    rep = run_mfpp("constant:0.5", 400.0, [1.0], 40, 3)
    assert rep.header["horizon"] == 5.0 and widest == [4] * 10


@pytest.mark.parametrize("lfamily", ("unit", "log"))
def test_run_ctrw_rejects_an_index_whose_partial_sums_overflow(lfamily, monkeypatch):
    # at beta = 0.01 the summand at the smallest uniform, 2**-53, is not finite
    def no_reps(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "_map_reps", no_reps)
    with pytest.raises(ValueError, match="overflow the float range") as err:
        experiments.run_ctrw("constant:0.01", lfamily, [100], [1.0], 20, 1)
    assert "\n" not in str(err.value)


def test_run_ctrw_solves_each_row_norming_once(monkeypatch):
    solve, calls = ctrw.norming_an, []
    monkeypatch.setattr(ctrw, "norming_an", lambda n, *args: calls.append(n) or solve(n, *args))
    experiments.run_ctrw("constant:0.5", "log", [20, 50, 100], [1.0], 20, 1)
    assert calls == [20, 50, 100]


def test_run_ctrw_rejects_a_bad_alpha_before_drawing(monkeypatch):
    def no_reps(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "_map_reps", no_reps)
    monkeypatch.setattr(experiments, "plan_passage", no_reps)
    with pytest.raises(ValueError, match="alpha must be one of") as err:
        experiments.run_ctrw("affine:0.4,0.2", "unit", [100], [1.0], 200, 1, alpha=0.1)
    assert "\n" not in str(err.value)


def test_runaway_quadrature_is_a_usage_error():
    # the mean count of this index's threshold block, eps**(-beta(s)) over
    # [0, 1] at the solved eps, refines past 2**20 nodes on one level, and
    # the node cap stops it there
    with pytest.raises(ValueError, match=r"over \[0, 1\] needs more than 1048576"):
        experiments.run_paths("sin:0.5,0.45,31", reps=2)


def test_the_pipelines_leave_numpy_ma_unimported():
    # numpy.ma costs a process about 10 ms to import; np.unique imports it
    code = ("import sys\n"
            "from mssim import experiments as e\n"
            "e.run_laplace('affine:0.4,0.2', reps=2)\n"
            "e.run_mfpp('constant:0.5', reps=2)\n"
            "e.run_ctrw('constant:0.5', reps=2)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(pathlib.Path(experiments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
