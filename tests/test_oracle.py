"""Brute-force oracle: exact EESD moments and entry covariances on tiny models."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hyperspectra import (
    ModelParams,
    covariance_profile,
    derive_stats,
    exact_covariances,
    exact_eesd_moments,
)


def test_moments_second_moment_identity():
    # m2 = (n-1)/n for any centered, scaled model
    m = exact_eesd_moments(ModelParams.of(3, [2], [0.5]))
    assert m.moments[1] == pytest.approx(2.0 / 3.0, abs=1e-13)

    m = exact_eesd_moments(ModelParams.of(4, [2, 3], [0.5, 0.5]))
    assert m.moments[1] == pytest.approx(3.0 / 4.0, abs=1e-13)


def test_moments_first_vanishes():
    for params in (
        ModelParams.of(3, [2], [0.25]),
        ModelParams.of(4, [3], [0.125]),
        ModelParams.of(4, [2, 3], [0.75, 0.5]),
    ):
        m = exact_eesd_moments(params)
        assert m.moments[0] == pytest.approx(0.0, abs=1e-13)


def test_moments_identity_randomized_tiny():
    rng = np.random.default_rng(60)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(2, min(n, 4)))
        p = float(rng.choice([0.25, 0.5, 0.75]))
        if math.comb(n, r) > 20:
            continue
        m = exact_eesd_moments(ModelParams.of(n, [r], [p]))
        assert m.moments[1] == pytest.approx((n - 1) / n, abs=1e-12)


def test_trace_second_moments_match_loop():
    # one configuration at a time: E[t_k] and E[t_k^2] for t_k = tr(H^k)/n
    params = ModelParams.of(4, [2, 3], [0.25, 0.6])
    n = params.n
    stats = derive_stats(params)
    edges = [(p, e) for r, p in params.classes for e in itertools.combinations(range(n), r)]
    mean = np.zeros(4)
    square = np.zeros(4)
    for present in itertools.product((0, 1), repeat=len(edges)):
        prob = 1.0
        A = np.zeros((n, n))
        for bit, (p, e) in zip(present, edges):
            prob *= p if bit else 1.0 - p
            for u, v in itertools.combinations(e, 2):
                A[u, v] += bit
                A[v, u] += bit
        H = (A - stats.mu) / math.sqrt(n * stats.sigma_sq)
        np.fill_diagonal(H, 0.0)
        t = np.array([np.trace(np.linalg.matrix_power(H, k)) / n for k in range(1, 5)])
        mean += prob * t
        square += prob * t * t
    got = exact_eesd_moments(params)
    assert got.moments == pytest.approx(mean, abs=1e-12)
    assert got.second_moments == pytest.approx(square, abs=1e-12)
    for k in range(1, 5):
        assert got.variance(k) == pytest.approx(square[k - 1] - mean[k - 1] ** 2, abs=1e-12)


def _loop_moments(params, max_k):
    """E[t_k] and E[t_k^2], k = 1..max_k, one configuration at a time."""
    n = params.n
    stats = derive_stats(params)
    edges = [(p, e) for r, p in params.classes for e in itertools.combinations(range(n), r)]
    mean = np.zeros(max_k)
    square = np.zeros(max_k)
    for present in itertools.product((0, 1), repeat=len(edges)):
        prob = 1.0
        A = np.zeros((n, n))
        for bit, (p, e) in zip(present, edges):
            prob *= p if bit else 1.0 - p
            for u, v in itertools.combinations(e, 2):
                A[u, v] += bit
                A[v, u] += bit
        H = (A - stats.mu) / math.sqrt(n * stats.sigma_sq)
        np.fill_diagonal(H, 0.0)
        t = np.array([np.trace(np.linalg.matrix_power(H, k)) / n for k in range(1, max_k + 1)])
        mean += prob * t
        square += prob * t * t
    return mean, square


@pytest.mark.parametrize(
    "n, r, p",
    [
        (4, [4], [0.5]),  # M = 1: the high half is empty
        (5, [4], [0.3]),  # odd M = 5
        (4, [2, 3], [1.0, 0.5]),  # zero-weight configurations in the tables
        (5, [2, 4], [0.3, 0.8]),  # M = 15: both classes span the halves
        (9, [8, 9], [0.4, 0.7]),  # n = 9, past the covariance oracle's range
    ],
)
def test_high_moments_match_loop(n, r, p):
    # every trace up to the cap, m_k and E[t_k^2], against a loop
    params = ModelParams.of(n, r, p)
    mean, square = _loop_moments(params, 4)
    got = exact_eesd_moments(params)
    assert got.moments == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert got.second_moments == pytest.approx(square, rel=1e-12, abs=1e-12)


def test_moments_refuse_large():
    with pytest.raises(ValueError):
        exact_eesd_moments(ModelParams.of(10, [3], [0.5]))


def test_moments_memory_bounded():
    # the halves are read in tiles: the largest verify model stays small
    params = ModelParams.of(5, [2, 3], [0.5, 0.5])
    tracemalloc.start()
    try:
        exact_eesd_moments(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_covariances_catalog():
    c = exact_covariances(ModelParams.of(5, [3], [0.5]))
    assert c.shared_vertex == pytest.approx(0.25, abs=1e-14)
    assert c.disjoint == pytest.approx(0.0, abs=1e-14)

    c = exact_covariances(ModelParams.of(6, [2], [0.5]))
    assert c.shared_vertex == 0.0 and c.disjoint == 0.0

    c = exact_covariances(ModelParams.of(6, [2, 4], [0.5, 0.5]))
    assert c.shared_vertex == pytest.approx(0.75, abs=1e-13)
    assert c.disjoint == pytest.approx(0.25, abs=1e-13)


def test_covariances_match_closed_form_randomized():
    rng = np.random.default_rng(61)
    seen = 0
    while seen < 10:
        n = int(rng.integers(4, 7))
        k = int(rng.integers(1, 3))
        rs = sorted(int(v) for v in rng.integers(2, min(n, 5), size=k))
        ps = [float(rng.choice([0.25, 0.5, 0.75])) for _ in range(k)]
        if any(math.comb(n, r) > 20 for r in rs):
            continue
        seen += 1
        params = ModelParams.of(n, rs, ps)
        got = exact_covariances(params)
        want_shared = math.fsum(
            (math.comb(n - 3, r - 3) if r >= 3 else 0) * p * (1 - p)
            for r, p in params.classes
        )
        want_disjoint = math.fsum(
            (math.comb(n - 4, r - 4) if r >= 4 else 0) * p * (1 - p)
            for r, p in params.classes
        )
        assert abs(got.shared_vertex - want_shared) <= 1e-12 * max(1.0, want_shared)
        assert abs(got.disjoint - want_disjoint) <= 1e-12 * max(1.0, want_disjoint)
        # and the normalized profile agrees
        prof = covariance_profile(params)
        sigma_sq = derive_stats(params).sigma_sq
        assert prof.gamma_n * sigma_sq == pytest.approx(want_shared, rel=1e-11)
        assert prof.rho_n * sigma_sq == pytest.approx(want_disjoint, rel=1e-11)


def test_covariances_domain():
    with pytest.raises(ValueError):
        exact_covariances(ModelParams.of(3, [2], [0.5]))
    with pytest.raises(ValueError):
        exact_covariances(ModelParams.of(9, [2], [0.5]))
