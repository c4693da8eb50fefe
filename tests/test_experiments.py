"""Tests for the replication pipelines and report plumbing."""

from concurrent.futures import Future
import math

import numpy as np
import pytest

from mssim import cli, experiments, ppp
from mssim.experiments import (
    CH_PASSAGE,
    Report,
    _block_passage,
    _increments_rep,
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
    near = level_tail_bound(idx1, 1.0, 1.0)
    far = level_tail_bound(idx5, 1.0, 5.0)
    assert far < near
    assert far <= 1e-8  # exp(-pi * 25 / 4) for this index


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
    early_mass = sum(ppp.small_jump_mass_window(idx, b.t0, b.t1, b.trunc)
                     for b in plan.blocks if b.t1 <= 1.0 + 1e-9)
    assert early_mass <= 1e-3 * (1 + 1e-6)
    for blk in plan.blocks:
        if blk.t0 >= 1.0:
            assert blk.mean_count <= experiments._PASSAGE_POINTS_CAP * (1 + 1e-6)


def test_run_laplace_small():
    rep = run_laplace("constant:0.5", [1.0], [1.0], 400, 11)
    assert rep.columns == (
        "beta_spec", "theta", "t", "mc_mean", "mc_se", "oracle", "bias_bound", "pass",
    )
    (row,) = rep.rows
    assert row[5] == pytest.approx(math.exp(-math.sqrt(math.pi)), abs=1e-9)
    assert abs(row[3] - row[5]) <= 3.0 * row[4] + row[6]
    assert rep.all_pass()


def test_run_laplace_honors_explicit_truncation():
    rep = run_laplace("constant:0.5", [1.0], [1.0], 50, 11, trunc_m=500.0)
    assert rep.header["truncation"] == "stationary:500"


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


def _no_integrate(*args):
    raise AssertionError("integrate called")


def test_mfpp_stationary_truncation_solves_no_block(monkeypatch):
    # under trunc_m the plan is one stationary block, whose count T * M
    # needs no quadrature, so no block truncation is solved
    monkeypatch.setattr(ppp, "integrate", _no_integrate)
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
        pat = ppp.sample_threshold(stream_for(1, 1, rep), blk, idx)
        assert ((pat.times >= blk.t0) & (pat.times <= blk.t1)).all()
    inc = _map_reps(_increments_rep, 4, None, seed=1, channel=1, idx=idx, blk=blocks[0],
                    windows=[(0.0, 0.5), (0.0, 1.0)])["inc"]
    assert inc.shape == (4, 2) and (inc[:, 1] >= inc[:, 0]).all()


def test_point_cap_bounds_the_envelope_count():
    # the budget block of affine:0.2,0.56 keeps 1.7e6 points on average but
    # needs 2.2e7 rejection candidates, above the cap of 1e7
    idx = StabilityIndex.from_spec("affine:0.2,0.56", 1.0)
    trunc = ppp.solve_truncation(idx, 1.0, "threshold", experiments.DEFAULT_MASS_BUDGET)
    mean_count = ppp.expected_count_window(idx, 0.0, 1.0, trunc)
    envelope = trunc.parameter ** -0.76  # the constant envelope at sup beta = 0.76
    assert mean_count < ppp.MAX_POINTS < envelope
    with pytest.raises(ValueError, match="points per replication") as err:
        ppp.plan_block(idx, 0.0, 1.0, trunc)
    assert f"{envelope:.3g} points" in str(err.value) and "\n" not in str(err.value)


def _inline_patterns(stream, plan):
    """The block draws written out by hand: one (times, sizes) pair per
    block, drawn only when the caller asks for the next block."""
    for blk in plan.blocks:
        k = stream.poisson(blk.mean_count)
        p = blk.trunc.parameter
        if blk.trunc.mode == "stationary":
            t = blk.t0 + (blk.t1 - blk.t0) * stream.uniform(k)
            x = (p * stream.uniform(k)) ** (-1.0 / plan.idx.evaluate_many(t))
        else:
            t = ppp.sample_threshold_times(stream, plan.idx, blk, k)
            x = p * stream.uniform(k) ** (-1.0 / plan.idx.evaluate_many(t))
        yield t, x


def _sorted_passage(patterns, levels):
    """The sorted kernel: each block's points sorted by time, a running
    prefix sum across blocks, then first passage."""
    levels = np.asarray(levels)
    e = np.full(len(levels), np.nan)
    total = 0.0
    nxt = 0
    for t, x in patterns:
        if len(t):
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
            got = _block_passage(stream_for(5, CH_PASSAGE, rep), plan)
            want = _inline_block_passage(stream_for(5, CH_PASSAGE, rep), plan)
            np.testing.assert_array_equal(got, want, err_msg=f"{spec} rep {rep}")
            es.append(got)
        # the passages spread over several blocks
        assert len({int(v // 0.25) for v in np.ravel(es)}) >= 3


def test_block_passage_of_one_stationary_block_equals_the_inline_kernel():
    # the plan of ``mfpp --trunc-m``: one stationary block on the whole horizon
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    blk = ppp.plan_block(idx, 0.0, idx.horizon, ppp.Truncation("stationary", 2000.0))
    plan = experiments.PassagePlan(idx, (0.05, 0.3, 1.0), (blk,))
    for rep in range(12):
        got = _block_passage(stream_for(5, CH_PASSAGE, rep), plan)
        want = _inline_block_passage(stream_for(5, CH_PASSAGE, rep), plan)
        np.testing.assert_array_equal(got, want)
        assert not np.isnan(got).any()


def _fixed_block_passage(monkeypatch, windows, patterns, levels):
    """``_block_passage`` over the given (times, sizes) pattern of each
    window, and the sorted kernel over the same patterns."""
    draws = iter(patterns)
    monkeypatch.setattr(ppp, "sample_pattern",
                        lambda stream, blk, idx: ppp.PointPattern(*next(draws), blk.t1))
    blocks = tuple(ppp.Block(t0, t1, ppp.Truncation("threshold", 0.01), 1.0, 0.5)
                   for t0, t1 in windows)
    got = _block_passage(None, experiments.PassagePlan(None, tuple(levels), blocks))
    return got, _sorted_passage(iter(patterns), levels)


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
    serial = _map_reps(_increments_rep, 128, None, **kwargs)["inc"]
    for workers, size in ((100_000, 3), (2, 2)):
        inline_pool.calls.clear()
        with experiments._open_pool(workers) as pool:
            pooled = _map_reps(_increments_rep, 128, pool, **kwargs)["inc"]
        assert pooled.tobytes() == serial.tobytes()
        assert inline_pool.sizes[-1] == size
    # about eight chunks per process, of at least 16 replications, in rep order:
    # 128 replications on two processes make eight chunks of 16
    spans = [args[1:3] for fn, args in inline_pool.calls]
    assert spans == [(lo, lo + 16) for lo in range(0, 128, 16)]
    # fewer than two chunks of 16 run serially
    inline_pool.calls.clear()
    with experiments._open_pool(2) as pool:
        _map_reps(_increments_rep, 31, pool, **kwargs)
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


def test_the_pool_is_shut_down_when_a_plan_block_raises(inline_pool, monkeypatch):
    solve = experiments._passage_block

    def failing_block(idx, t0, t1):
        if t0 >= 0.5:
            raise ValueError("too many points")
        return solve(idx, t0, t1)

    monkeypatch.setattr(experiments, "_passage_block", failing_block)
    with pytest.raises(ValueError, match="too many points"):
        run_mfpp("affine:0.4,0.2", 1.0, [1.0], 64, 3, workers=2)
    assert inline_pool.sizes == [2] and inline_pool.exits == 1


def test_the_plan_submits_its_latest_windows_first(inline_pool):
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    serial = plan_passage(idx, [1.0])
    with experiments._open_pool(2) as pool:
        pooled = plan_passage(idx, [1.0], pool)
    starts = [args[1] for fn, args in inline_pool.calls]
    assert starts == [2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5, 0.25, 0.0]
    assert [repr(b) for b in pooled.blocks] == [repr(b) for b in serial.blocks]


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
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _DeferredPool)
    monkeypatch.setattr(_DeferredPool, "futures", [])
    monkeypatch.setattr(_DeferredPool, "exits", 0)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["mfpp", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2", "--workers", "2"])
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


def test_a_plan_in_a_real_pool_equals_the_serial_plan():
    idx, _ = choose_horizon("affine:0.4,0.2", 1.0)
    serial = plan_passage(idx, [1.0])
    with experiments.ProcessPoolExecutor(max_workers=2) as pool:
        pooled = plan_passage(idx, [1.0], pool)
    assert len(serial.blocks) == 10
    cap = experiments._PASSAGE_POINTS_CAP
    assert sum(b.mean_count >= cap * (1 - 1e-6) for b in serial.blocks) == 5
    for got, want in zip(pooled.blocks, serial.blocks, strict=True):
        assert repr(got) == repr(want)


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
def test_increments_equal_the_two_mask_sums_bit_for_bit(mode):
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = experiments._budget_block(idx, 1.0, mode)
    # (0, t < T], (0, T], (0, b > T] and windows with a > 0
    windows = [(0.0, 0.3), (0.0, 0.95), (0.0, 1.0), (0.0, 2.0), (0.25, 0.75), (0.5, 1.0)]
    for rep in range(12):
        pat = ppp.sample_pattern(stream_for(5, 1, rep), blk, idx)
        t, x = pat.times, pat.sizes
        want = np.array([x[(t > a) & (t <= b)].sum() for a, b in windows])
        got = _increments_rep(rep, 5, 1, idx, blk, windows)["inc"]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lfamily", ("unit", "log"))
def test_run_ctrw_rejects_an_index_whose_partial_sums_overflow(lfamily, monkeypatch):
    # at beta = 0.01 the summand at the smallest uniform, 2**-53, is not finite
    def no_reps(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "_map_reps", no_reps)
    with pytest.raises(ValueError, match="overflow the float range") as err:
        experiments.run_ctrw("constant:0.01", lfamily, [100], [1.0], 20, 1)
    assert "\n" not in str(err.value)


def test_runaway_quadrature_is_a_usage_error():
    # the stationary mass of this index refines one integral to 21M nodes
    # on its deepest level; the node cap stops it at the first level past 2**20
    with pytest.raises(ValueError, match=r"over \[0, 1\] needs more than 1048576"):
        run_laplace("sin:0.5,0.45,31", [1.0], [1.0], 2, 1)
