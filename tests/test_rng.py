"""Tests for the counter-based replication streams."""

import numpy as np
import pytest

from mssim import RngStream, sample_poisson_path


def test_same_key_same_sequence():
    a = RngStream(42, 0)
    b = RngStream(42, 0)
    assert a.uniform(100).tolist() == b.uniform(100).tolist()


def test_distinct_stream_ids_differ():
    assert (RngStream(42, 0).uniform(4) != RngStream(42, 1).uniform(4)).all()


def test_distinct_seeds_differ():
    assert (RngStream(42, 0).uniform(4) != RngStream(43, 0).uniform(4)).all()


def test_key_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(ValueError):
        RngStream(0.5, 0)


def test_uniform_open_interval_and_mean():
    u = RngStream(123, 0).uniform(1_000_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002  # 3 * sqrt(1/12) / 1000


def test_streams_pairwise_uncorrelated():
    a = RngStream(9, 0).uniform(100_000)
    b = RngStream(9, 1).uniform(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_exponential_mean_and_positivity():
    # the gaps of a rate-2 Poisson clock are Exp(2): about 200,000 of mean 0.5
    x = np.diff(sample_poisson_path(RngStream(5, 0), 2.0, 100_000.0), prepend=0.0)
    assert (x > 0).all()
    assert abs(x.mean() - 0.5) < 0.005
    with pytest.raises(ValueError):
        sample_poisson_path(RngStream(5, 0), 0.0, 1.0)


def test_poisson_draws():
    s = RngStream(11, 0)
    draws = np.array([s.poisson(4.0) for _ in range(20_000)])
    assert abs(draws.mean() - 4.0) < 0.05
    assert s.poisson(0.0) == 0
    with pytest.raises(ValueError):
        s.poisson(-1.0)


def test_bernoulli_frequency():
    hits = RngStream(13, 0).bernoulli(0.3, 200_000)
    assert hits.dtype == bool
    assert abs(hits.mean() - 0.3) < 0.004
