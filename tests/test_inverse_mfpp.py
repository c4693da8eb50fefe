"""Tests for the right-continuous inverse and the time-changed count."""

import math

from hypothesis import given, strategies as st
import numpy as np

from mssim import (
    JumpPath,
    RngStream,
    eval_many,
    first_passage,
    sample_poisson_path,
    time_changed_count,
)


def _path(times, sizes):
    times = np.asarray(times, float)
    sizes = np.asarray(sizes, float)
    return JumpPath(times, sizes, np.cumsum(sizes), 1.0)


REF = _path([0.2, 0.5, 0.9], [1.0, 2.0, 0.5])  # prefix [1.0, 3.0, 3.5]


def _e(path, levels):
    return first_passage(path.times, path.prefix, levels).tolist()


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
    e = first_passage(REF.times, REF.prefix, np.array([1.0, 9.0]))
    assert e[0] == 0.2 and np.isnan(e[1])


@given(
    st.lists(st.floats(0.0, 10.0), min_size=0, max_size=30),
    st.lists(st.floats(1e-6, 5.0), min_size=30, max_size=30),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 200.0)), min_size=1, max_size=20),
)
def test_first_passage_matches_linear_scan(times, sizes, levels):
    # sorted times (repeats allowed), positive sizes, levels including 0,
    # repeats, exact prefix sums and levels above the total mass
    times = np.sort(np.array(times))
    prefix = np.cumsum(np.array(sizes[: len(times)]))
    levels = levels + levels[:2] + prefix[: len(levels)].tolist()
    got = first_passage(times, prefix, levels)
    for r, e in zip(levels, got):
        hits = [t for t, p in zip(times, prefix) if p >= r]
        want = 0.0 if r == 0.0 else (hits[0] if hits else None)
        assert np.isnan(e) if want is None else e == want


def test_inverse_plateaus_cover_every_jump():
    # each jump time is attained on the whole prefix window (D(tau-), D(tau)]
    prev = 0.0
    for i, tau in enumerate(REF.times):
        top = REF.prefix[i]
        assert _e(REF, [prev + 1e-12, 0.5 * (prev + top), top]) == [tau] * 3
        prev = top


def test_inverse_is_galois_adjoint_of_eval():
    rng = np.random.default_rng(31)
    ts = rng.uniform(0.0, 1.0, 200)
    v = eval_many(REF, ts)
    reached = v > 0.0
    assert (first_passage(REF.times, REF.prefix, v[reached]) <= ts[reached] + 1e-12).all()
    rs = rng.uniform(0.0, REF.total, 200)
    assert (eval_many(REF, first_passage(REF.times, REF.prefix, rs)) >= rs).all()


def test_poisson_path_zero_horizon():
    assert len(sample_poisson_path(RngStream(1, 0), 3.0, 0.0).arrivals) == 0


def test_poisson_path_determinism_and_invariants():
    a = sample_poisson_path(RngStream(2, 5), 2.0, 10.0)
    b = sample_poisson_path(RngStream(2, 5), 2.0, 10.0)
    assert a.arrivals.tolist() == b.arrivals.tolist()
    assert (np.diff(a.arrivals) > 0).all()
    assert (a.arrivals <= 10.0).all() and (a.arrivals > 0).all()


def test_poisson_path_mean_count():
    counts = [
        len(sample_poisson_path(RngStream(3, r), 3.0, 1.0).arrivals) for r in range(10_000)
    ]
    assert abs(np.mean(counts) - 3.0) <= 3.0 * math.sqrt(3.0 / 10_000)


def _mfpp(d_path, arrivals, levels):
    """X(t) = N(E(t)) at each level t."""
    return time_changed_count(arrivals, first_passage(d_path.times, d_path.prefix, levels))


def test_mfpp_value_examples():
    arrivals = np.array([0.3, 0.8])
    d_half = _path([0.5], [2.0])
    assert _mfpp(d_half, arrivals, [1.5]).tolist() == [1.0]  # E(1.5) = 0.5
    assert _mfpp(d_half, arrivals, [0.0]).tolist() == [0.0]  # E(0) = 0
    assert np.isnan(_mfpp(d_half, arrivals, [2.5])).all()  # E(2.5) unreached
    d_late = _path([0.8], [2.0])
    assert _mfpp(d_late, arrivals, [1.0]).tolist() == [2.0]  # arrival at its own time


def test_mfpp_value_monotone_in_t():
    arrivals = sample_poisson_path(RngStream(4, 0), 5.0, 1.0).arrivals
    vals = _mfpp(REF, arrivals, np.linspace(0.0, REF.total, 50))
    assert (np.diff(vals) >= 0).all()
    assert (vals == np.round(vals)).all()
