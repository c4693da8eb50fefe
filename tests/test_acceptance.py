"""Acceptance gate: every verification criterion at full scale.

The whole suite is produced by one ``run_verify`` call (the same code path
as ``mssim verify``); each test below asserts one criterion and prints a
single PASS/FAIL line for it.  The determinism criterion additionally
exercises the real command-line entry point.

The negative controls at the end show that a criterion can fail: a sampler
that reads its index 0.05 too high, increments over overlapping windows, a
path whose jumps are not sorted by time, a passage kernel that does not
carry its running total across blocks, or a walk that every replication
reads from one stream, must trip it.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mssim import experiments, ppp, stats, subordinator
from mssim.stability import StabilityIndex

SEED = 42


@pytest.fixture(scope="session")
def verify_report():
    workers = os.cpu_count() or 1
    return experiments.run_verify(SEED, workers=workers, quick=False)


def _criterion(report, k, label):
    rows = [r for r in report.rows if r[0] == k]
    assert rows, f"criterion {k} produced no checks"
    ok = all(bool(r[-1]) for r in rows)
    print(f"criterion {k} ({label}): {'PASS' if ok else 'FAIL'} [{len(rows)} checks]")
    for r in rows:
        if not r[-1]:
            print(f"  failed check: {r[1]} value={r[2]} bound={r[3]}")
    return ok


def test_criterion_1_transform_oracle(verify_report):
    # MC transform of D(t) vs the closed form, both index families,
    # theta in {0.5, 1, 2}, t in {0.5, 1}, tolerance 3*SE: the mean over the
    # kept jumps times the exact transform of the dropped ones
    assert _criterion(verify_report, 1, "transform oracle")


def test_criterion_2_sampler_cross_validation(verify_report):
    # KS between the two truncated samplers below the 1% critical value
    assert _criterion(verify_report, 2, "sampler cross-validation")


def test_criterion_3_continuity_bound(verify_report):
    # P(increment > 0.1) <= 21*h + 3*SE for h in {0.01, 0.05, 0.1}
    assert _criterion(verify_report, 3, "continuity bound")


def test_criterion_4_independent_increments(verify_report):
    # |corr| of increments on (0, 0.5] vs (0.5, 1] within 3/sqrt(reps)
    assert _criterion(verify_report, 4, "independent increments")


def test_criterion_5_monotone_paths(verify_report):
    # strict prefix increase and inverse consistency, zero tolerance
    assert _criterion(verify_report, 5, "monotone paths and inverses")


def test_criterion_6_count_marginal_oracle(verify_report):
    # P(X(1)=0) vs the Mittag-Leffler value within 3*SE
    assert _criterion(verify_report, 6, "count marginal oracle")


def test_criterion_7_tail_normalization(verify_report):
    # n * P(normalized summand > 1) = 1 within 3*SE at n=100
    assert _criterion(verify_report, 7, "tail normalization identity")


def test_criterion_8_array_limits(verify_report):
    # KS of S_n(1) vs D(1), E_n(1) vs E(1), composed walk vs X(1):
    # non-increasing in n up to one inversion, below critical at n=10^4
    assert _criterion(verify_report, 8, "array approximation limits")


def test_criterion_9_determinism(verify_report):
    # in-process: rerun and worker-count rows from the verify report
    ok = _criterion(verify_report, 9, "determinism")
    assert ok
    # end to end: the verify command itself, rerun at reduced scale,
    # must be byte-identical and insensitive to the worker count
    args = [sys.executable, "-m", "mssim.cli", "verify",
            "--seed", str(SEED), "--quick", "--scale", "0.05"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    third = subprocess.run(args + ["--workers", "2"], capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == third.stdout


# -- negative controls --------------------------------------------------------


def _shift_beta(monkeypatch, *transforms):
    """Read the index 0.05 higher in the named ``ppp`` point transforms, which
    take the index values last; the samplers and the increments kernel share
    them."""
    for name in transforms:
        transform = getattr(ppp, name)
        monkeypatch.setattr(ppp, name,
                            lambda *args, f=transform: f(*args[:-1], args[-1] + 0.05))


@pytest.mark.parametrize("spec", experiments._VERIFY_FAMILIES)
def test_criterion_1_fails_when_the_sampler_shifts_beta(spec, monkeypatch):
    # criterion 1's run at the quick size; its worst ratio is 0.30 for the
    # constant index and 0.31 for the affine one, and 4.31 and 4.25 shifted
    # (4.28 to 4.65 and 4.20 to 4.53 over seeds 42 and 1 to 5)
    def worst(rep):
        return max(abs(r[3] - r[5]) / (3.0 * r[4]) for r in rep.rows)

    args = (spec, (0.5, 1.0, 2.0), (0.5, 1.0), 8000, SEED)
    plain = experiments.run_laplace(*args)
    assert plain.all_pass() and worst(plain) < 1.0
    _shift_beta(monkeypatch, "stationary_sizes")
    shifted = experiments.run_laplace(*args)
    assert not shifted.all_pass() and worst(shifted) > 2.0


def _criterion_2_ks(n):
    """Criterion 2's KS distance at n draws per sampler, and its critical value."""
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    samples = [experiments._increments(n, None, SEED, ch, idx,
                                       experiments._budget_block(idx, 1.0, mode, n),
                                       [(0.0, 1.0)])[:, 0]
               for mode, ch in (("stationary", experiments.CH_CROSS_STATIONARY),
                                ("threshold", experiments.CH_CROSS_THRESHOLD))]
    return stats.ks_two_sample(*samples), stats.ks_critical_value(n, n, 0.01)


def test_criterion_2_fails_when_one_sampler_shifts_beta(monkeypatch):
    # KS is 0.037 against 0.052 at 2,000 draws per side, and 0.31 with the
    # threshold sampler shifted
    ks, crit = _criterion_2_ks(2000)
    assert ks < crit
    _shift_beta(monkeypatch, "thinned", "threshold_sizes")
    ks, crit = _criterion_2_ks(2000)
    assert ks > 3.0 * crit


def _criterion_4_corr(windows, n=2000):
    """Criterion 4's rank correlation of the increments over two windows at
    n replications, and its bound."""
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    inc = experiments._increments(n, None, SEED, experiments.CH_INCREMENTS, idx,
                                  experiments._budget_block(idx, 1.0, "stationary", n), windows)
    return abs(stats.increment_correlation(inc[:, 0], inc[:, 1])), 3.0 / math.sqrt(n)


def test_criterion_4_fails_on_overlapping_windows():
    # criterion 4's run at the quick size: disjoint windows give a rank
    # correlation of 0.013 against 0.067, and (0, 0.5] with (0, 1] give 0.61
    corr, bound = _criterion_4_corr([(0.0, 0.5), (0.5, 1.0)])
    assert corr <= bound
    corr, bound = _criterion_4_corr([(0.0, 0.5), (0.0, 1.0)])
    assert corr > 3.0 * bound


def _criterion_5_violations(spec, n=50):
    """Criterion 5's violation count for one index at n replications."""
    idx = StabilityIndex.from_spec(spec, 1.0)
    blk = experiments._budget_block(idx, 1.0, "stationary", n)
    return int(experiments._map_reps(experiments._monotone_chunk, n, None,
                                     experiments._kernel_reps(blk), seed=SEED, idx=idx,
                                     blk=blk)["bad"].sum())


@pytest.mark.parametrize("spec", experiments._VERIFY_FAMILIES)
def test_criterion_5_fails_when_the_path_is_not_sorted(spec, monkeypatch):
    # criterion 5's run at the quick size counts no violation, and 3,655
    # (constant) and 3,585 (affine) when the jumps keep their draw order
    assert _criterion_5_violations(spec) == 0

    def unsorted(times, sizes):
        return times, np.cumsum(sizes)

    monkeypatch.setattr(subordinator, "build_path", unsorted)
    assert _criterion_5_violations(spec) > 1000


def test_criterion_6_fails_when_the_passage_forgets_earlier_blocks(monkeypatch):
    # criterion 6's run at the quick size: |p - oracle| is 0.0021 against
    # 3*SE = 0.027, and 0.052 when each block's sum starts from zero again
    args = ("constant:0.5", 1.0, [1.0], 3000, SEED)
    assert experiments.run_mfpp(*args).all_pass()
    passage = experiments._block_passage

    def forgetful(streams, plan):
        e = np.full((len(streams), len(plan.levels)), np.nan)
        for stream, row in zip(streams, e):
            for blk in plan.blocks:
                left = np.isnan(row)
                if not left.any():
                    break
                levels = tuple(np.asarray(plan.levels)[left])
                row[left] = passage([stream], experiments.PassagePlan(plan.idx, levels, (blk,)))[0]
        return e

    monkeypatch.setattr(experiments, "_block_passage", forgetful)
    assert not experiments.run_mfpp(*args).all_pass()


@pytest.mark.parametrize("spec", experiments._VERIFY_FAMILIES)
def test_criterion_8_fails_when_the_replications_share_one_walk_stream(spec, monkeypatch):
    # criterion 8's run at the quick size: the walk's KS at n = 1,000 is
    # 0.012 (constant) and 0.014 (affine) against 0.061, and 0.18 and 0.22
    # when every replication's walk reads the steps of replication 0
    args = (spec, "unit", (100, 1000), [1.0], 1000, SEED)
    assert experiments.run_ctrw(*args, alpha=0.05).all_pass()
    streams_for = experiments.streams_for

    def shared_walk(seed, channel, lo, hi):
        # a row's walk channel is an odd offset from its jump channel
        walk = channel > experiments.CH_CTRW_JUMPS and (channel - experiments.CH_CTRW_JUMPS) % 2
        if walk:
            return (experiments.stream_for(seed, channel, 0) for _ in range(lo, hi))
        return streams_for(seed, channel, lo, hi)

    monkeypatch.setattr(experiments, "streams_for", shared_walk)
    shared = experiments.run_ctrw(*args, alpha=0.05)
    ks_x, crit = shared.rows[-1][4:6]
    assert not shared.all_pass() and ks_x > 2.0 * crit
