"""End-to-end acceptance suite: eleven numbered checks, one verdict line each.

Run with -s to see the verdict lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
from scipy import integrate

from hyperspectra import (
    ModelParams,
    SemicircleLaw,
    adjacency,
    center_scale,
    chatterjee_bound,
    classify_regime_k2,
    covariance_profile,
    derive_stats,
    eigenvalues,
    empirical_stieltjes,
    esd,
    exact_covariances,
    exact_eesd_moments,
    ks_distance,
    moment,
    sample_hypergraph,
    sample_surrogate,
)
from hyperspectra.cli import dumps, resolve_config, run_montecarlo, run_verify


def _verdict(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {idx}: {detail}"


def _trial_eigs(params: ModelParams, seed: int) -> np.ndarray:
    h = sample_hypergraph(params, seed)
    return eigenvalues(center_scale(adjacency(h), params))


def test_acceptance_01_second_moment_identity():
    t0 = time.perf_counter()
    params = ModelParams.of(500, [2, 3], [0.05, 0.001])
    m2s = np.array([moment(esd(_trial_eigs(params, 100 + t)), 2) for t in range(50)])
    elapsed = time.perf_counter() - t0
    mean = float(m2s.mean())
    se = float(m2s.std(ddof=1) / math.sqrt(m2s.size))
    target = 499 / 500
    ok = abs(mean - target) <= 3.0 * se and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"mean m2 = {mean:.6f} vs {target} (3 s.e. = {3 * se:.2e}), {elapsed:.1f}s",
    )


def test_acceptance_02_superposition_unit_semicircle():
    t0 = time.perf_counter()
    params = ModelParams.of(2000, [2, 2], [0.3, 0.5])
    eigs = np.concatenate([_trial_eigs(params, 200 + t) for t in range(5)])
    pooled = esd(eigs)
    law = SemicircleLaw(1.0)
    ks = ks_distance(pooled, law)
    probes = [1j, 1 + 1j, -1 + 1j]
    gaps = [abs(empirical_stieltjes(eigs, z) - law.stieltjes(z)) for z in probes]
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.02 and max(gaps) <= 0.05 and elapsed < 120.0
    _verdict(
        2,
        ok,
        f"KS = {ks:.4f} (limit 0.02), max Stieltjes gap = {max(gaps):.4f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_03_fixed_size_mixture():
    params = ModelParams.of(2000, [2, 3], [0.1, 0.005])
    stats = derive_stats(params)
    s2 = math.fsum(
        w * (1.0 - r / params.n) ** 2 for w, r in zip(stats.w_fin, params.r)
    )
    eigs = np.concatenate([_trial_eigs(params, 300 + t) for t in range(5)])
    ks = ks_distance(esd(eigs), SemicircleLaw(s2))
    _verdict(3, ks <= 0.03, f"KS = {ks:.4f} against s2_pred = {s2:.6f} (limit 0.03)")


def test_acceptance_04_linear_size_surrogate():
    params = ModelParams.of(2000, [600], [0.3])
    profile = covariance_profile(params)
    eigs = np.concatenate(
        [eigenvalues(sample_surrogate(params.n, profile, 400 + t)) for t in range(5)]
    )
    s2 = (1.0 - 598.0 / 1998.0) ** 2
    ks = ks_distance(esd(eigs), SemicircleLaw(s2))
    theta_gap = abs(profile.theta_sq - s2)
    ok = ks <= 0.03 and theta_gap <= 0.005
    _verdict(
        4,
        ok,
        f"KS = {ks:.4f} (limit 0.03), |theta_sq - (1-c)^2| = {theta_gap:.2e} "
        f"(limit 5e-3)",
    )


def test_acceptance_05_surrogate_covariance_fidelity():
    n, seeds = 200, 2000
    params = ModelParams.of(n, [5], [0.3])
    profile = covariance_profile(params)
    h12 = np.empty(seeds)
    h13 = np.empty(seeds)
    h34 = np.empty(seeds)
    for s in range(seeds):
        H = sample_surrogate(n, profile, 500 + s)
        h12[s], h13[s], h34[s] = H[0, 1], H[0, 2], H[2, 3]

    def cov_check(x, y, target):
        prod = x * y
        got = n * float(prod.mean() - x.mean() * y.mean())
        se = n * float(prod.std(ddof=1) / math.sqrt(seeds))
        return got, se, abs(got - target) <= 4.0 * se

    got_g, se_g, ok_g = cov_check(h12, h13, profile.gamma_n)
    got_r, se_r, ok_r = cov_check(h12, h34, profile.rho_n)
    _verdict(
        5,
        ok_g and ok_r,
        f"n cov shared = {got_g:.4f} vs gamma_n = {profile.gamma_n:.4f} "
        f"(4 s.e. = {4 * se_g:.4f}); n cov disjoint = {got_r:.4f} vs "
        f"rho_n = {profile.rho_n:.4f} (4 s.e. = {4 * se_r:.4f})",
    )


def test_acceptance_06_oracle_equivalence():
    t0 = time.perf_counter()
    params = ModelParams.of(4, [2, 3], [0.5, 0.5])
    moments = exact_eesd_moments(params).moments
    m2_exact_ok = abs(moments[1] - 0.75) <= 1e-12

    covs = exact_covariances(params)
    stats = derive_stats(params)
    profile = covariance_profile(params)
    cov_ok = (
        abs(covs.shared_vertex - profile.gamma_n * stats.sigma_sq) <= 1e-12
        and abs(covs.disjoint - profile.rho_n * stats.sigma_sq) <= 1e-12
    )

    cfg = resolve_config(None, dict(n=4, r=[2, 3], p=[0.5, 0.5], trials=100_000, seed=6))
    report = run_verify(cfg)
    m4 = next(c for c in report["checks"] if c["name"] == "montecarlo_m4_vs_oracle")
    elapsed = time.perf_counter() - t0
    ok = m2_exact_ok and cov_ok and report["passed"] and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"exact m2 = {moments[1]:.12f}, MC m4 = {m4['got']:.5f} vs "
        f"{m4['expected']:.5f} (tol {m4['tol']:.2e}), {elapsed:.1f}s",
    )


def test_acceptance_07_single_class_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 10_001))
        r = int(rng.integers(2, min(50, n - 2) + 1))
        p = float(rng.uniform(1e-6, 1.0 - 1e-6))
        stats = derive_stats(ModelParams.of(n, [r], [p]))
        sigma_sq = math.comb(n - 2, r - 2) * p * (1.0 - p)
        d = math.comb(n - 1, r - 1) * p
        for got, want in (
            (stats.xi, 1.0 / r**2),
            (stats.K_n, math.sqrt(n * sigma_sq) / r**4),
            (stats.log_nonsparsity_ratio, math.log(d) - 9.0 * math.log(r)),
        ):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _verdict(7, worst <= 1e-12, f"worst relative error = {worst:.2e} over 100 draws")


def test_acceptance_08_regime_table():
    labels = []
    for p2 in (1e-5, 1e-3, 0.5):
        labels.append(classify_regime_k2(ModelParams.of(500, [3, 4], [0.5, p2])).value)
    ok = labels == ["r1-dominant", "balanced", "r2-dominant"]
    _verdict(8, ok, f"labels = {labels}")


def test_acceptance_09_semicircle_utilities():
    norm_worst = 0.0
    for s_sq in (0.25, 0.49, 1.0):
        law = SemicircleLaw(s_sq)
        two_s = 2.0 * math.sqrt(s_sq)
        # x = 2s sin t removes the edge singularity
        total, err = integrate.quad(
            lambda t: law.pdf(two_s * math.sin(t)) * two_s * math.cos(t),
            -math.pi / 2,
            math.pi / 2,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=500,
        )
        assert err < 1e-10
        norm_worst = max(norm_worst, abs(total - 1.0))

    stieltjes_worst = 0.0
    im_ok = True
    for s_sq in (0.25, 0.49, 1.0):
        law = SemicircleLaw(s_sq)
        two_s = 2.0 * math.sqrt(s_sq)
        for z in (1j, 1 + 1j, -0.5 + 2j):
            def part(t, real):
                x = two_s * math.sin(t)
                v = law.pdf(x) / (x - z) * two_s * math.cos(t)
                return v.real if real else v.imag

            re, _ = integrate.quad(part, -math.pi / 2, math.pi / 2,
                                   args=(True,), epsabs=1e-12, epsrel=1e-12, limit=500)
            im, _ = integrate.quad(part, -math.pi / 2, math.pi / 2,
                                   args=(False,), epsabs=1e-12, epsrel=1e-12, limit=500)
            got = law.stieltjes(z)
            stieltjes_worst = max(stieltjes_worst, abs(got - complex(re, im)))
            im_ok = im_ok and got.imag > 0.0
    ok = norm_worst <= 1e-9 and stieltjes_worst <= 1e-8 and im_ok
    _verdict(
        9,
        ok,
        f"normalization gap = {norm_worst:.2e} (limit 1e-9), Stieltjes gap = "
        f"{stieltjes_worst:.2e} (limit 1e-8), Im > 0: {im_ok}",
    )


def test_acceptance_10_replacement_bound_decreasing():
    totals = [
        chatterjee_bound(ModelParams.of(n, [3], [0.1]), 1j, 1.0).total
        for n in (100, 400, 1600, 6400)
    ]
    ok = all(t > 0.0 for t in totals) and all(
        a > b for a, b in zip(totals, totals[1:])
    )
    _verdict(10, ok, "totals = [" + ", ".join(f"{t:.4g}" for t in totals) + "]")


def test_acceptance_11_worker_count_determinism():
    base = dict(n=300, r=[3], p=[0.01], trials=4, seed=42, bins=40)
    text1 = dumps(run_montecarlo(resolve_config(None, dict(base, workers=1))))
    text4 = dumps(run_montecarlo(resolve_config(None, dict(base, workers=4))))
    ok = text1 == text4
    _verdict(11, ok, f"reports byte-identical across worker counts: {ok}")
