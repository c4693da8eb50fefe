"""Tests for the replication pipelines and report plumbing."""

import math

import numpy as np
import pytest

from mssim import experiments, ppp
from mssim.experiments import (
    Report,
    choose_horizon,
    level_tail_bound,
    plan_passage,
    run_laplace,
    run_mfpp,
    stream_for,
)
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
    assert a.uniform() != b.uniform()


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


def test_plan_passage_budgets():
    idx, bound = choose_horizon("affine:0.4,0.2", 1.0)
    plan = plan_passage(idx, [1.0], bound)
    assert plan.blocks[0].t0 == 0.0
    assert plan.blocks[-1].t1 == pytest.approx(idx.horizon)
    for a, b in zip(plan.blocks, plan.blocks[1:]):
        assert b.t0 == pytest.approx(a.t1)
    early_mass = sum(b.excluded_mass for b in plan.blocks if b.t1 <= 1.0 + 1e-9)
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


def test_mfpp_stationary_truncation_solves_no_block(monkeypatch):
    # under trunc_m the replications read only the plan's levels, horizon
    # and index, so no block truncation is solved
    def no_call(*args):
        raise AssertionError("expected_count_window called")

    monkeypatch.setattr(ppp, "expected_count_window", no_call)
    rep = run_mfpp("affine:0.4,0.2", 1.0, [1.0], 20, 13, trunc_m=2000.0)
    assert rep.header["horizon"] == 2.5
    assert rep.header["unreached"] == 0


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
