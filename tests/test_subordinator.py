"""Tests for jump-path construction, evaluation, and the transform oracle."""

import itertools
import math

import numpy as np
import pytest

from mssim import (
    PointPattern,
    RngStream,
    StabilityIndex,
    Truncation,
    build_path,
    eval_many,
    gamma_fn,
    laplace_transform,
    plan_block,
    sample_pattern,
    sample_threshold,
)
from mssim.experiments import _increments, stream_for


def _pattern(times, sizes, horizon=1.0):
    return PointPattern(np.asarray(times, float), np.asarray(sizes, float), horizon)


def test_build_empty():
    path = build_path(_pattern([], []))
    assert len(path.times) == 0
    assert path.total == 0.0


def test_build_sorts_and_accumulates():
    path = build_path(_pattern([0.5, 0.2], [2.0, 1.0]))
    assert path.times.tolist() == [0.2, 0.5]
    assert path.prefix.tolist() == [1.0, 3.0]


def test_build_merges_coincident_times():
    path = build_path(_pattern([0.3, 0.3, 0.7], [1.0, 2.0, 4.0]))
    assert path.times.tolist() == [0.3, 0.7]
    assert path.sizes.tolist() == [3.0, 4.0]
    assert (np.diff(path.prefix) > 0).all()


def test_tie_merge_is_independent_of_input_order():
    # 1 + 1e-16 + 1e-16 rounds to 1 summed from the large end but not from
    # the small end, so the merge must fix the order within a tie group
    times = [0.3, 0.3, 0.3, 0.1, 0.7]
    sizes = [1.0, 1e-16, 1e-16, 2.0, 4.0]
    paths = [build_path(_pattern(np.take(times, p), np.take(sizes, p)))
             for p in itertools.permutations(range(5))]
    first = paths[0]
    assert first.times.tolist() == [0.1, 0.3, 0.7]
    assert first.sizes[1] == 1e-16 + 1e-16 + 1.0 != 1.0
    for path in paths[1:]:
        assert path.times.tobytes() == first.times.tobytes()
        assert path.sizes.tobytes() == first.sizes.tobytes()
        assert path.prefix.tobytes() == first.prefix.tobytes()


def test_build_large_pattern_resummation():
    rng = np.random.default_rng(99)
    times = rng.uniform(0.0, 1.0, 100_000)
    sizes = rng.pareto(1.5, 100_000) + 1e-9
    path = build_path(_pattern(times, sizes))
    assert (np.diff(path.prefix) > 0).all()
    reference = math.fsum(sizes)
    assert abs(path.total - reference) <= 1e-12 * reference


def test_eval_examples():
    path = build_path(_pattern([0.5, 0.2], [2.0, 1.0]))
    # right-continuous: the jump at 0.2 counts at its own time
    assert eval_many(path, [0.3, 0.2, 0.1]).tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        eval_many(path, [1.5])


def test_eval_many_matches_scalar():
    path = build_path(_pattern([0.5, 0.2], [2.0, 1.0]))
    ts = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
    assert eval_many(path, ts).tolist() == [0.0, 0.0, 1.0, 1.0, 3.0, 3.0]


def test_increment_examples():
    # the pipelines' increments over (a, b] are masked sums of the pattern;
    # they must equal D(b) - D(a) of the path built from the same pattern
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("stationary", 200.0))
    windows = [(0.1, 0.4), (0.25, 0.35), (0.1, 0.55), (0.0, 0.5), (0.5, 1.0)]
    inc = _increments(20, None, 3, 5, idx, blk, windows)
    for rep in range(20):
        path = build_path(sample_pattern(stream_for(3, 5, rep), blk, idx))
        a, b = np.array(windows).T
        # prefix-sum differences carry rounding of the order of the path total
        want = eval_many(path, b) - eval_many(path, a)
        assert inc[rep] == pytest.approx(want, rel=0, abs=1e-12 * path.total)


def test_gamma_fn_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(2.0) == 1.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.0)
    zs = np.array([1.0, 2.0, 0.5])
    assert gamma_fn(zs).tolist() == [gamma_fn(z) for z in zs.tolist()]
    with pytest.raises(ValueError):
        gamma_fn(np.array([0.5, 0.0]))


def test_laplace_transform_trivial_arguments():
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    assert laplace_transform(idx, 0.0, 1.0) == 1.0
    assert laplace_transform(idx, 2.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        laplace_transform(idx, -1.0, 1.0)


def test_laplace_transform_constant_index_closed_form():
    idx = StabilityIndex.from_spec("constant:0.5", 1.0)
    assert laplace_transform(idx, 1.0, 1.0) == pytest.approx(math.exp(-math.sqrt(math.pi)), abs=1e-9)
    for theta, t in ((0.5, 0.5), (2.0, 1.0), (3.7, 0.25)):
        expect = math.exp(-math.gamma(0.5) * t * theta**0.5)
        assert laplace_transform(idx, theta, t) == pytest.approx(expect, abs=1e-9)
    idx3 = StabilityIndex.from_spec("constant:0.3", 1.0)
    expect = math.exp(-math.gamma(0.7) * 0.5 * 2.0**0.3)
    assert laplace_transform(idx3, 2.0, 0.5) == pytest.approx(expect, abs=1e-9)


def test_path_values_monotone_in_time():
    idx = StabilityIndex.from_spec("sin:0.5,0.3,1", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("threshold", 1e-4))
    path = build_path(sample_threshold(RngStream(12, 0), blk, idx))
    vals = eval_many(path, np.linspace(0.0, 1.0, 500))
    assert (np.diff(vals) >= 0).all()
