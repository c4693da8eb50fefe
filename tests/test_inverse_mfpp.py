"""Tests for the right-continuous inverse and the time-changed count."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from mssim import (
    RngStream,
    build_path,
    eval_many,
    first_passage,
    rng,
    sample_poisson_path,
    time_changed_count,
)
from mssim.inverse_mfpp import time_changed_counts


def _path(times, sizes):
    return build_path(np.asarray(times, float), np.asarray(sizes, float))


REF = _path([0.2, 0.5, 0.9], [1.0, 2.0, 0.5])  # prefix [1.0, 3.0, 3.5]


def _e(path, levels):
    return first_passage(*path, levels).tolist()


def test_inverse_examples():
    # boundary: D(0.5) = 3.0 >= 3.0; level 4.0 exceeds the total mass
    assert _e(REF, [0.5, 3.0, 3.4]) == [0.2, 0.5, 0.9]
    assert math.isnan(_e(REF, [4.0])[0])


def test_inverse_of_zero_is_zero():
    assert _e(REF, [0.0]) == [0.0]
    empty = _path([], [])
    assert _e(empty, [0.0]) == [0.0]
    assert math.isnan(_e(empty, [0.1])[0])


def test_inverse_many_matches_scalar():
    rs = [0.0, 0.5, 1.0, 1.5, 3.0, 3.2, 3.5]
    assert _e(REF, rs) == [0.0, 0.2, 0.2, 0.5, 0.5, 0.9, 0.9]
    assert [_e(REF, [r])[0] for r in rs] == _e(REF, rs)
    # unreached levels are NaN
    e = first_passage(*REF, np.array([1.0, 9.0]))
    assert e[0] == 0.2 and np.isnan(e[1])


def _scan_passage(times, prefix, r, start, drift, t1):
    """First passage at level r by a linear scan over the segments of the
    path from 0: each runs from the value after one jump (or ``start`` at
    time 0) to the value just before the next jump (or to time ``t1``)."""
    if r <= start:
        return 0.0
    t_prev, v_prev = 0.0, start
    for t, p in zip(times, prefix):
        if drift and v_prev + drift * (t - t_prev) >= r:
            return t_prev + (r - v_prev) / drift
        t_prev, v_prev = t, p + drift * t
        if v_prev >= r:
            return t
    return min(t1, t_prev + (r - v_prev) / drift) if drift else math.nan


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=0, max_size=30),
    st.lists(st.floats(1e-6, 5.0), min_size=30, max_size=30),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 200.0)), min_size=1, max_size=20),
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    st.one_of(st.just(math.inf), st.floats(10.0, 20.0)),
)
def test_first_passage_matches_linear_scan(times, sizes, levels, drift, start, t1):
    # sorted times (repeats allowed), positive sizes, a drift, a start and
    # an end; levels including 0, the start, repeats, exact prefix sums and
    # one above the value at any finite end
    times = np.sort(np.array(times))
    prefix = start + np.cumsum(np.array(sizes[: len(times)]))
    top = (prefix[-1] if len(prefix) else start) + 20.0 * drift + 1.0
    levels = levels + levels[:2] + [start, top] + prefix[: len(levels)].tolist()
    got = first_passage(times, prefix, levels, start, drift, 0.0, t1)
    want = [_scan_passage(times, prefix, r, start, drift, t1) for r in levels]
    if drift:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        return
    # without drift, today's step rule exactly: the first jump whose prefix
    # sum reaches r, 0 at level 0 and NaN above the total
    np.testing.assert_array_equal(got, want)
    if start == 0.0:
        for r, e in zip(levels, got):
            hits = [t for t, p in zip(times, prefix) if p >= r]
            step = 0.0 if r == 0.0 else (hits[0] if hits else None)
            assert np.isnan(e) if step is None else e == step


# the path from 1.0 at t0 = 0.5, with drift 2 and a jump of 0.25 at 0.625:
# 1.25 just before the jump, 1.5 just after, and 1.75 at t1 = 0.75
_RAMP = dict(start=1.0, drift=2.0, t0=0.5, t1=0.75)


def test_first_passage_with_drift_examples():
    levels = [0.5, 1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75]
    e = first_passage(np.array([0.625]), np.array([1.25]), levels, **_RAMP)
    # at the start, by drift, at the jump, by drift after it, at the end
    assert e.tolist() == [0.5, 0.5, 0.5625, 0.625, 0.625, 0.625, 0.6875, 0.75]


def test_first_passage_caps_the_drift_at_t1():
    # a level the drift would reach only past t1 gives t1
    e = first_passage(np.array([0.625]), np.array([1.25]), [1.75 + 1e-12, 2.5], **_RAMP)
    assert e.tolist() == [0.75, 0.75]


def test_first_passage_crosses_by_drift_in_an_empty_bin():
    e = first_passage(np.empty(0), np.empty(0), [1.0, 1.25, 1.5], **_RAMP)
    assert e.tolist() == [0.5, 0.625, 0.75]


def test_inverse_plateaus_cover_every_jump():
    # each jump time is attained on the whole prefix window (D(tau-), D(tau)]
    prev = 0.0
    for i, tau in enumerate(REF[0]):
        top = REF[1][i]
        assert _e(REF, [prev + 1e-12, 0.5 * (prev + top), top]) == [tau] * 3
        prev = top


def test_inverse_is_galois_adjoint_of_eval():
    rng = np.random.default_rng(31)
    ts = rng.uniform(0.0, 1.0, 200)
    v = eval_many(*REF, ts)
    reached = v > 0.0
    assert (first_passage(*REF, v[reached]) <= ts[reached] + 1e-12).all()
    rs = rng.uniform(0.0, REF[1][-1], 200)
    assert (eval_many(*REF, first_passage(*REF, rs)) >= rs).all()


def test_poisson_path_zero_horizon():
    assert len(sample_poisson_path(RngStream(1, 0), 3.0, 0.0)) == 0


def test_poisson_path_determinism_and_invariants():
    a = sample_poisson_path(RngStream(2, 5), 2.0, 10.0)
    b = sample_poisson_path(RngStream(2, 5), 2.0, 10.0)
    assert a.tolist() == b.tolist()
    assert (np.diff(a) > 0).all()
    assert (a <= 10.0).all() and (a > 0).all()


def test_poisson_path_mean_count():
    counts = [
        len(sample_poisson_path(RngStream(3, r), 3.0, 1.0)) for r in range(10_000)
    ]
    assert abs(np.mean(counts) - 3.0) <= 3.0 * math.sqrt(3.0 / 10_000)


def _mfpp(d_path, arrivals, levels):
    """X(t) = N(E(t)) at each level t."""
    return time_changed_count(arrivals, first_passage(*d_path, levels))


def test_batch_counts_are_those_of_each_streams_poisson_path():
    # times at 0, at the horizon, between arrivals and on them; rate 2 on
    # [0, 1.5] leaves some streams without arrivals
    batch = rng.Streams(9, 50, 40)
    paths = [sample_poisson_path(s, 2.0, 1.5) for s in batch]
    assert min(map(len, paths)) == 0 and max(map(len, paths)) > 4
    grid = np.random.default_rng(0).uniform(0.0, 1.5, (40, 3))
    e = np.column_stack([np.zeros(40), np.full(40, 1.5), grid,
                         [a[len(a) // 2] if len(a) else 0.7 for a in paths]])
    want = np.array([time_changed_count(a, row) for a, row in zip(paths, e)])
    got = time_changed_counts(batch, 2.0, 1.5, e)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="finite and non-negative"):
        time_changed_counts(batch, math.inf, 1.5, e)


def test_mfpp_value_examples():
    arrivals = np.array([0.3, 0.8])
    d_half = _path([0.5], [2.0])
    assert _mfpp(d_half, arrivals, [1.5]).tolist() == [1.0]  # E(1.5) = 0.5
    assert _mfpp(d_half, arrivals, [0.0]).tolist() == [0.0]  # E(0) = 0
    assert np.isnan(_mfpp(d_half, arrivals, [2.5])).all()  # E(2.5) unreached
    d_late = _path([0.8], [2.0])
    assert _mfpp(d_late, arrivals, [1.0]).tolist() == [2.0]  # arrival at its own time


def test_mfpp_value_monotone_in_t():
    arrivals = sample_poisson_path(RngStream(4, 0), 5.0, 1.0)
    vals = _mfpp(REF, arrivals, np.linspace(0.0, REF[1][-1], 50))
    assert (np.diff(vals) >= 0).all()
    assert (vals == np.round(vals)).all()
