"""Gaussian surrogate ensemble: coefficients, covariance fidelity, rank
structure, determinism."""

import math

import numpy as np
import pytest

from hyperspectra import (
    CovarianceProfile,
    ModelParams,
    covariance_profile,
    sample_surrogate,
)

GOE = CovarianceProfile(rho_n=0.0, gamma_n=0.0, theta_sq=1.0)


def coefficients(prof):
    """theta = sqrt(theta^2), alpha = sqrt(gamma - rho), beta = sqrt(rho)."""
    return (
        math.sqrt(prof.theta_sq),
        math.sqrt(prof.gamma_n - prof.rho_n),
        math.sqrt(prof.rho_n),
    )


def reference_surrogate(n, theta, alpha, beta, seed):
    """The documented build: W (n x n), then g (n), then g0 drawn from
    default_rng(seed); returns the matrix and the perturbation
    alpha (g_u + g_v) + beta g0 before the diagonal is zeroed."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    g = rng.standard_normal(n)
    g0 = float(rng.standard_normal())
    pert = alpha * (g[:, None] + g[None, :]) + beta * g0
    upper = np.triu(W, 1)
    H = (theta * (upper + upper.T) + pert) / math.sqrt(n)
    np.fill_diagonal(H, 0.0)
    return H, pert


def test_coefficients_catalog():
    want, _ = reference_surrogate(30, 1.0, 0.0, 0.0, seed=3)
    assert np.array_equal(sample_surrogate(30, GOE, seed=3)[0], want)

    prof = covariance_profile(ModelParams.of(6, [4], [0.5]))
    assert coefficients(prof) == pytest.approx(
        (math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 3.0), math.sqrt(1.0 / 6.0)), rel=1e-12
    )
    want, _ = reference_surrogate(
        30, math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 3.0), math.sqrt(1.0 / 6.0), seed=3
    )
    assert sample_surrogate(30, prof, seed=3)[0] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_coefficients_variance_identity_randomized():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(5, 400))
        r = int(rng.integers(2, min(n, 9)))
        p = float(rng.uniform(0.01, 0.99))
        prof = covariance_profile(ModelParams.of(n, [r], [p]))
        theta, alpha, beta = coefficients(prof)
        assert theta**2 + 2 * alpha**2 + beta**2 == pytest.approx(1.0, abs=1e-12)
        # the sampler builds with exactly these coefficients
        want, _ = reference_surrogate(6, theta, alpha, beta, seed=n)
        assert sample_surrogate(6, prof, seed=n)[0] == pytest.approx(want, abs=1e-15)


def test_coefficients_reject_bad_profile():
    with pytest.raises(ValueError, match="inconsistent profile"):
        sample_surrogate(4, CovarianceProfile(rho_n=0.5, gamma_n=0.1, theta_sq=0.2), seed=0)


def test_sample_determinism():
    prof = covariance_profile(ModelParams.of(10, [3], [0.4]))
    a = sample_surrogate(64, prof, seed=99)[0]
    b = sample_surrogate(64, prof, seed=99)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_surrogate(64, prof, seed=100)[0])


def test_sample_shape_invariants():
    prof = covariance_profile(ModelParams.of(12, [4], [0.25]))
    assert sample_surrogate(80, prof, seed=2).shape == (1, 80, 80)
    stack = sample_surrogate(20, prof, seed=2, trials=3)
    assert stack.shape == (3, 20, 20)
    # a stack draws W for every trial, then every g, then every g0
    rng = np.random.default_rng(2)
    W, g, g0 = rng.standard_normal((3, 20, 20)), rng.standard_normal((3, 20)), rng.standard_normal(3)
    theta, alpha, beta = coefficients(prof)
    for t, H in enumerate(stack):
        upper = np.triu(W[t], 1)
        want = (theta * (upper + upper.T) + alpha * np.add.outer(g[t], g[t]) + beta * g0[t]) / math.sqrt(20)
        np.fill_diagonal(want, 0.0)
        assert H == pytest.approx(want, abs=1e-15)
        assert np.array_equal(H, H.T)
        assert (np.diag(H) == 0.0).all()


def test_entry_variance_goe_case():
    # theta = 1: plain symmetric Gaussian entries with variance 1/n
    n = 2000
    H = sample_surrogate(n, GOE, seed=7)[0]
    off = H[np.triu_indices(n, 1)]
    var = off.var(ddof=1)
    se = math.sqrt(2.0 / off.size) / n  # Var estimator s.e. for Gaussian data
    assert abs(var - 1.0 / n) <= 3 * se


def test_entry_covariance_fidelity():
    # n Cov(H_12, H_13) ~ gamma_n and n Cov(H_12, H_34) ~ rho_n
    params = ModelParams.of(200, [5], [0.3])
    prof = covariance_profile(params)
    trials = 2000
    h12 = np.empty(trials)
    h13 = np.empty(trials)
    h34 = np.empty(trials)
    for s in range(trials):
        H = sample_surrogate(200, prof, seed=s)[0]
        h12[s], h13[s], h34[s] = H[0, 1], H[0, 2], H[2, 3]
    for x, y, want in [(h12, h13, prof.gamma_n), (h12, h34, prof.rho_n)]:
        prod = 200.0 * x * y
        cov = prod.mean() - 200.0 * x.mean() * y.mean()
        se = prod.std(ddof=1) / math.sqrt(trials)
        assert abs(cov - want) <= 4 * se


def test_perturbation_rank_at_most_three():
    # alpha (g_u + g_v) + beta g as a matrix has rank <= 3 before the
    # diagonal correction; check the 4th singular value vanishes
    prof = covariance_profile(ModelParams.of(20, [6], [0.3]))
    n = 100
    want, pert = reference_surrogate(n, *coefficients(prof), seed=5)
    sv = np.linalg.svd(pert, compute_uv=False)
    assert sv[3] < 1e-8 * sv[0]
    # and the sampled matrix reproduces theta W + perturbation off-diagonal
    assert sample_surrogate(n, prof, seed=5)[0] == pytest.approx(want, abs=1e-15)


def test_sample_seeded_stream_pinned():
    # one seeded 4 x 4 matrix; it changes only on a documented stream change
    prof = covariance_profile(ModelParams.of(6, [4], [0.5]))
    assert min(coefficients(prof)) > 0.0  # every part of the sum is exercised
    want = [
        [0.0, 0.09641590966350014, -0.14513854452052366, -0.3271220603191557],
        [0.09641590966350014, 0.0, -0.41808562711850056, -0.038387744688890696],
        [-0.14513854452052366, -0.41808562711850056, 0.0, -0.18670319857098555],
        [-0.3271220603191557, -0.038387744688890696, -0.18670319857098555, 0.0],
    ]
    assert sample_surrogate(4, prof, seed=1)[0] == pytest.approx(np.array(want), abs=1e-15)


def test_entry_normality():
    # pooled standardized entries over many seeds: skewness and excess
    # kurtosis near zero
    prof = covariance_profile(ModelParams.of(15, [4], [0.2]))
    n = 50
    vals = np.empty(10_000)
    for s in range(vals.size):
        H = sample_surrogate(n, prof, seed=s)[0]
        vals[s] = H[1, 2] * math.sqrt(n)
    m = vals.mean()
    sd = vals.std(ddof=1)
    z = (vals - m) / sd
    skew = np.mean(z**3)
    kurt = np.mean(z**4) - 3.0
    assert abs(skew) < 0.1
    assert abs(kurt) < 0.2


def test_surrogate_refusals():
    with pytest.raises(ValueError) as exc:
        sample_surrogate(1, GOE, seed=0)
    assert str(exc.value) == "need an integer n >= 2, got 1"
    with pytest.raises(ValueError) as exc:
        sample_surrogate(4, CovarianceProfile(rho_n=1.5, gamma_n=0.1, theta_sq=0.2), seed=0)
    assert str(exc.value) == "profile outside [0, 1]: rho=1.5, gamma=0.1"
    # at n = 3 a class with r = 3 has gamma = 1 and no vertex-disjoint entries
    with pytest.raises(ValueError) as exc:
        sample_surrogate(3, covariance_profile(ModelParams.of(3, [3], [0.5])), seed=0)
    assert str(exc.value) == "inconsistent profile: gamma - rho = 1.0, theta^2 = -1.0"
    # a stack numpy cannot address is refused before anything is drawn
    for n, trials in ((3037000500, 1), (2**20, 2**20)):
        with pytest.raises(MemoryError) as exc:
            sample_surrogate(n, GOE, seed=0, trials=trials)
        assert str(exc.value) == (
            f"a ({trials}, {n}, {n}) array of 8-byte entries needs {8 * trials * n * n} bytes"
        )
