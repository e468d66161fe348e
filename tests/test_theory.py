"""Closed-form statistics against an exact rational-arithmetic oracle.

The oracle below re-evaluates every defining formula in Fraction arithmetic,
sharing nothing with the library's log-space implementation except the model
definition itself.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from hyperspectra import (
    ChatterjeeBound,
    DegenerateModelError,
    ModelParams,
    Regime,
    bernoulli_tail_second_moment,
    bernoulli_truncated_third_moment,
    chatterjee_bound,
    classify_regime_k2,
    covariance_profile,
    derive_stats,
    gaussian_tail_second_moment,
    gaussian_truncated_third_moment,
    log_binomial,
    log_expected_edges,
    pastur_lhs_bernoulli,
    pastur_lhs_gaussian,
    predicted_variance,
)


def comb0(m: int, j: int) -> int:
    """C(m, j) with absent terms (j < 0 or j > m) contributing 0."""
    if j < 0 or j > m:
        return 0
    return math.comb(m, j)


class RationalStats:
    """Every derived statistic of the model in exact Fraction arithmetic."""

    def __init__(self, n: int, classes):
        self.n = n
        self.classes = [(r, Fraction(p)) for r, p in classes]
        self.sigma_i_sq = [p * (1 - p) for _, p in self.classes]
        self.B = [
            comb0(n - 2, r - 2) * s for (r, _), s in zip(self.classes, self.sigma_i_sq)
        ]
        self.mu = sum(comb0(n - 2, r - 2) * p for r, p in self.classes)
        self.sigma_sq = sum(self.B)
        self.w = [b / self.sigma_sq for b in self.B]
        self.xi = sum(w / r**2 for w, (r, _) in zip(self.w, self.classes))
        self.d = [comb0(n - 1, r - 1) * p for r, p in self.classes]
        self.gamma = (
            sum(
                comb0(n - 3, r - 3) * s
                for (r, _), s in zip(self.classes, self.sigma_i_sq)
            )
            / self.sigma_sq
        )
        self.rho = (
            sum(
                comb0(n - 4, r - 4) * s
                for (r, _), s in zip(self.classes, self.sigma_i_sq)
            )
            / self.sigma_sq
        )
        self.theta_sq = 1 - 2 * self.gamma + self.rho
        r_max = max(r for r, _ in self.classes)
        a = sum(r * d for (r, _), d in zip(self.classes, self.d)) ** 2
        b = Fraction(r_max) ** 16 * self.xi**2
        c = sum(d / r for (r, _), d in zip(self.classes, self.d))
        self.nonsparsity = a / (b * c)

    def k_n(self) -> float:
        r_max = max(r for r, _ in self.classes)
        return math.sqrt(self.n * float(self.sigma_sq)) / (r_max**6 * float(self.xi))


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# log_binomial


def test_log_binomial_catalog():
    assert log_binomial(5, 2) == pytest.approx(math.log(10), rel=1e-15)
    assert log_binomial(7, 0) == 0.0
    assert log_binomial(4, 3) == pytest.approx(math.log(4), rel=1e-15)


def test_log_binomial_accuracy_contract():
    # n <= 1e6 contract is 1e-12 relative; exercise both code paths.
    # k = n/2 capped at n = 5000: the exact reference is a bigint whose
    # cost explodes, while the code path is already covered.
    for n in (10, 97, 5000, 10**6):
        for k in (0, 1, 2, 17, 511, 512, 513, 900, 2000, n // 2 if n <= 5000 else 3):
            if k > n:
                continue
            got = log_binomial(n, k)
            want = math.log(math.comb(n, k)) if math.comb(n, k) > 1 else 0.0
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) / want < 1e-12, (n, k)


def test_log_binomial_domain():
    with pytest.raises(ValueError):
        log_binomial(5, -1)
    with pytest.raises(ValueError):
        log_binomial(5, 6)
    with pytest.raises(ValueError):
        log_binomial(5.0, 2)


# ---------------------------------------------------------------------------
# derive_stats


def test_derive_stats_catalog():
    stats = derive_stats(ModelParams.of(5, [2, 3], [0.5, 0.5]))
    assert stats.mu == pytest.approx(2.0, rel=1e-14)
    assert stats.sigma_sq == pytest.approx(1.0, rel=1e-14)
    assert stats.w_fin == pytest.approx((0.25, 0.75), rel=1e-13)
    assert stats.xi == pytest.approx(0.25 / 4 + 0.75 / 9, rel=1e-13)

    d1 = math.exp(derive_stats(ModelParams.of(5, [3], [0.5])).log_d[0])
    assert d1 == pytest.approx(3.0, rel=1e-13)


def test_derive_stats_single_class_weights():
    rng = np.random.default_rng(20260819)
    for _ in range(25):
        n = int(rng.integers(3, 500))
        r = int(rng.integers(2, min(n, 12)))
        p = float(rng.uniform(0.01, 0.99))
        stats = derive_stats(ModelParams.of(n, [r], [p]))
        assert stats.w_fin == (1.0,)
        assert stats.xi == pytest.approx(1.0 / r**2, rel=1e-14)


def test_derive_stats_degenerate():
    # all-zero: nothing to draw, refused at construction
    with pytest.raises(DegenerateModelError):
        ModelParams.of(6, [2], [0.0])
    # p = 1 constructs (complete classes sample fine) but has zero variance
    params = ModelParams.of(6, [2, 3], [0.0, 1.0])
    with pytest.raises(DegenerateModelError):
        derive_stats(params)
    with pytest.raises(DegenerateModelError):
        covariance_profile(ModelParams.of(6, [2], [1.0]))


def test_rational_consistency_small_n():
    # log-space evaluation vs exact rationals, all n <= 30
    rng = np.random.default_rng(7)
    cases = []
    for n in range(4, 31, 2):
        cases.append((n, [(2, 0.5)]))
        cases.append((n, [(2, 0.125), (3, 0.75)]))
        r2 = int(rng.integers(3, min(n, 7)))
        cases.append((n, [(2, 0.3), (r2, 0.0625)]))
    for n, classes in cases:
        oracle = RationalStats(n, classes)
        stats = derive_stats(ModelParams.of(n, [r for r, _ in classes], [p for _, p in classes]))
        assert rel_err(stats.mu, float(oracle.mu)) < 1e-10
        assert rel_err(stats.sigma_sq, float(oracle.sigma_sq)) < 1e-10
        assert rel_err(stats.xi, float(oracle.xi)) < 1e-10
        for got, want in zip(stats.w_fin, oracle.w):
            assert rel_err(got, float(want)) < 1e-10
        for got, want in zip(stats.log_d, oracle.d):
            assert rel_err(math.exp(got), float(want)) < 1e-10
        prof = covariance_profile(ModelParams.of(n, [r for r, _ in classes], [p for _, p in classes]))
        assert rel_err(prof.gamma_n, float(oracle.gamma)) < 1e-10
        assert rel_err(prof.rho_n, float(oracle.rho)) < 1e-10


def test_weight_normalization_randomized():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(5, 10_001))
        k = int(rng.integers(1, 5))
        rs = sorted(int(v) for v in rng.integers(2, min(n, 9), size=k))
        ps = [float(v) for v in rng.uniform(0.001, 0.999, size=k)]
        stats = derive_stats(ModelParams.of(n, rs, ps))
        assert abs(math.fsum(stats.w_fin) - 1.0) < 1e-12


def test_log_expected_edges():
    def direct(n, rs, ps):
        return math.log(sum(math.comb(n, r) * p for r, p in zip(rs, ps)))

    # a p = 0 class is an absent term
    got = log_expected_edges(ModelParams.of(10, [2, 3], [0.5, 0.0]))
    assert got == pytest.approx(direct(10, [2, 3], [0.5, 0.0]), rel=1e-12)
    # zero entry variance: derive_stats raises, the edge count is still defined
    params = ModelParams.of(6, [6], [1.0])
    with pytest.raises(DegenerateModelError):
        derive_stats(params)
    assert log_expected_edges(params) == 0.0
    assert direct(6, [6], [1.0]) == 0.0
    # C(200, 15) p is about 1.5e4 with p = 1e-18
    got = log_expected_edges(ModelParams.of(200, [15], [1e-18]))
    assert got == pytest.approx(log_binomial(200, 15) + math.log(1e-18), rel=1e-12)
    assert got == pytest.approx(direct(200, [15], [1e-18]), rel=1e-12)


# ---------------------------------------------------------------------------
# k = 1 identities and the non-sparsity ratio


def test_k1_identities_randomized():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        n = int(rng.integers(3, 10_001))
        r = int(rng.integers(2, min(n + 1, 51)))
        p = float(rng.uniform(1e-6, 1.0 - 1e-6))
        params = ModelParams.of(n, [r], [p])
        stats = derive_stats(params)
        assert abs(stats.xi - 1.0 / r**2) <= 1e-12 / r**2
        k_n_direct = math.sqrt(n * stats.sigma_sq) / r**4
        assert rel_err(stats.K_n, k_n_direct) < 1e-12
        d = math.exp(stats.log_d[0])
        want = math.log(d / r**9)
        got = derive_stats(params).log_nonsparsity_ratio
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_nonsparsity_catalog():
    got = derive_stats(ModelParams.of(100, [3], [0.1])).log_nonsparsity_ratio
    assert got == pytest.approx(math.log(485.1 / 19683), rel=1e-12)
    got = derive_stats(ModelParams.of(100, [2], [0.5])).log_nonsparsity_ratio
    assert got == pytest.approx(math.log(49.5 / 512), rel=1e-12)


def test_nonsparsity_rational_oracle_k2():
    for n, classes in [(20, [(2, 0.25), (4, 0.5)]), (12, [(3, 0.75), (5, 0.125)])]:
        oracle = RationalStats(n, classes)
        got = derive_stats(
            ModelParams.of(n, [r for r, _ in classes], [p for _, p in classes])
        ).log_nonsparsity_ratio
        assert got == pytest.approx(math.log(float(oracle.nonsparsity)), rel=1e-10)


# ---------------------------------------------------------------------------
# covariance profile


def test_covariance_profile_catalog():
    prof = covariance_profile(ModelParams.of(6, [4], [0.5]))
    assert prof.gamma_n == pytest.approx(0.5, rel=1e-13)
    assert prof.rho_n == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert prof.theta_sq == pytest.approx(1.0 / 6.0, abs=1e-13)

    prof = covariance_profile(ModelParams.of(50, [2, 2], [0.5, 0.25]))
    assert prof.gamma_n == 0.0
    assert prof.rho_n == 0.0
    assert prof.theta_sq == 1.0

    prof = covariance_profile(ModelParams.of(6, [2, 4], [0.5, 0.5]))
    assert prof.gamma_n == pytest.approx(3.0 / 7.0, rel=1e-13)
    assert prof.rho_n == pytest.approx(1.0 / 7.0, rel=1e-13)
    assert prof.theta_sq == pytest.approx(2.0 / 7.0, rel=1e-12)


def test_covariance_profile_one_class_closed_form():
    # one class: theta^2 = (n - r)(n - r - 1) / ((n - 2)(n - 3)) >= 0 from
    # n = 4 on, gamma = 1 at r = n; at n = 3 no entries are vertex-disjoint
    for n in range(4, 12):
        for r in range(2, n + 1):
            prof = covariance_profile(ModelParams.of(n, [r], [0.3]))
            want = (n - r) * (n - r - 1) / ((n - 2) * (n - 3))
            assert prof.theta_sq == pytest.approx(want, abs=1e-12), (n, r)
            assert prof.gamma_n == pytest.approx((r - 2) / (n - 2), abs=1e-12)
    prof = covariance_profile(ModelParams.of(3, [3], [0.5]))
    assert (prof.rho_n, prof.gamma_n, prof.theta_sq) == (0.0, 1.0, -1.0)


def test_covariance_profile_ordering_randomized():
    rng = np.random.default_rng(404)
    for _ in range(80):
        n = int(rng.integers(4, 2000))
        k = int(rng.integers(1, 4))
        rs = sorted(int(v) for v in rng.integers(2, min(n, 10), size=k))
        ps = [float(v) for v in rng.uniform(0.001, 0.999, size=k)]
        prof = covariance_profile(ModelParams.of(n, rs, ps))
        assert 0.0 <= prof.rho_n <= prof.gamma_n < 1.0
        assert prof.theta_sq >= 0.0
        assert prof.theta_sq == pytest.approx(
            1.0 - 2.0 * prof.gamma_n + prof.rho_n, abs=1e-12
        )


# ---------------------------------------------------------------------------
# limit variance and regimes


def test_limit_variance_catalog():
    # one class with r / n = c predicts (1 - c)^2
    for n, r in ((20, 2), (10, 3), (10, 9)):
        s2 = predicted_variance(ModelParams.of(n, [r], [0.3]))
        assert s2 == pytest.approx((1 - r / n) ** 2, rel=1e-14)
    # c -> 0 gives 1, within O(1/n)
    assert predicted_variance(ModelParams.of(10**6, [2], [1e-3])) == pytest.approx(1.0, abs=5e-6)
    # n = 4, r = (2, 3): sigma_i^2 = C(2, r_i - 2) p_i (1 - p_i) is 1/4 for
    # both classes, so w = (1/2, 1/2), c = (1/2, 3/4) and s^2 = 5/32
    equal = ModelParams.of(4, [2, 3], [0.5, (1 - math.sqrt(0.5)) / 2])
    assert derive_stats(equal).w_fin == pytest.approx((0.5, 0.5), rel=1e-14)
    assert predicted_variance(equal) == pytest.approx(5 / 32, rel=1e-14)


def test_predicted_variance():
    # n = 5, r = (2, 3), p = 1/2: w = (1/4, 3/4), so s^2 = 0.25 * 0.6^2 + 0.75 * 0.4^2
    assert predicted_variance(ModelParams.of(5, [2, 3], [0.5, 0.5])) == pytest.approx(
        0.21, rel=1e-14
    )
    # every class with r_i = n predicts 0
    assert predicted_variance(ModelParams.of(4, [4], [0.5])) == 0.0


def test_model_params_rejects_untyped_classes():
    for r, p in (([2.9], [0.5]), (["2"], [0.5]), ([2], ["0.1"]), ([2], [True])):
        with pytest.raises(ValueError):
            ModelParams.of(5, r, p)
    params = ModelParams.of(5, [np.int64(3)], [np.float64(0.5)])
    assert params.classes == ((3, 0.5),)
    assert type(params.r[0]) is int and type(params.p[0]) is float


def test_classify_regime_thresholds():
    # p2 tiny -> B2 negligible -> w1 ~ 1; p2 large -> w1 ~ 0; middle balanced
    r1_dom = ModelParams.of(500, [3, 4], [0.5, 1e-5])
    assert classify_regime_k2(r1_dom) is Regime.R1_DOMINANT
    assert derive_stats(r1_dom).w_fin[0] > 0.99

    balanced = ModelParams.of(500, [3, 4], [0.5, 1e-3])
    assert classify_regime_k2(balanced) is Regime.BALANCED

    r2_dom = ModelParams.of(500, [3, 4], [0.5, 0.5])
    assert classify_regime_k2(r2_dom) is Regime.R2_DOMINANT
    assert derive_stats(r2_dom).w_fin[0] < 0.01


def test_classify_regime_homogeneous_large_sizes():
    # equal p: the larger class size dominates the variance for r <= n/2
    for p in (0.05, 0.3, 0.49):
        assert classify_regime_k2(ModelParams.of(200, [60, 100], [p, p])) is Regime.R2_DOMINANT


def test_classify_regime_arity():
    with pytest.raises(ValueError):
        classify_regime_k2(ModelParams.of(10, [2], [0.5]))
    with pytest.raises(ValueError):
        classify_regime_k2(ModelParams.of(10, [2, 2, 3], [0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# truncated moments, Pastur tails


def test_bernoulli_tail_two_point():
    # centered Bernoulli(p) has atoms 1-p (mass p) and -p (mass 1-p)
    assert bernoulli_tail_second_moment(0.5, 0.4) == pytest.approx(0.25, rel=1e-14)
    assert bernoulli_tail_second_moment(0.1, 0.5) == pytest.approx(0.081, rel=1e-14)
    assert bernoulli_tail_second_moment(0.3, 0.9) == 0.0
    # threshold exactly at an atom: strict inequality keeps it out
    assert bernoulli_tail_second_moment(0.5, 0.5) == 0.0


def test_gaussian_tail_against_quadrature():
    for sigma, t in [(1.0, 0.0), (1.0, 1.0), (0.3, 0.2), (2.0, 5.0), (1.0, 40.5)]:
        got = gaussian_tail_second_moment(sigma, t)
        want, err = integrate.quad(
            lambda z: z * z * math.exp(-z * z / (2 * sigma * sigma))
            / (sigma * math.sqrt(2 * math.pi)),
            t,
            max(8 * sigma, t + 8 * sigma),
        )
        want *= 2.0
        assert abs(got - want) <= max(1e-13, 1e-10 * want) + 2 * err
    assert gaussian_tail_second_moment(1.0, 0.0) == pytest.approx(1.0, rel=1e-13)
    assert gaussian_tail_second_moment(1.0, 1.0) == pytest.approx(0.801252, abs=1e-6)
    assert gaussian_tail_second_moment(1.0, 41.0) == 0.0


def test_gaussian_truncated_third_against_quadrature():
    for sigma, t in [(1.0, 0.5), (1.0, 2.0), (0.25, 0.3), (3.0, 1.0)]:
        got = gaussian_truncated_third_moment(sigma, t)
        want, err = integrate.quad(
            lambda z: abs(z) ** 3 * math.exp(-z * z / (2 * sigma * sigma))
            / (sigma * math.sqrt(2 * math.pi)),
            -t,
            t,
        )
        assert abs(got - want) <= max(1e-13, 1e-10 * want) + 2 * err


def test_bernoulli_truncated_third_two_point():
    # both atoms inside: full third absolute moment
    p = 0.3
    full = p * (1 - p) ** 3 + (1 - p) * p**3
    assert bernoulli_truncated_third_moment(p, 0.8) == pytest.approx(full, rel=1e-14)
    # only the -p atom inside
    only_small = (1 - p) * p**3
    assert bernoulli_truncated_third_moment(p, 0.5) == pytest.approx(
        only_small, rel=1e-14
    )
    assert bernoulli_truncated_third_moment(p, 0.1) == 0.0


def test_pastur_catalog_and_monotonicity():
    params = ModelParams.of(100, [3], [0.1])
    stats = derive_stats(params)
    # eps placing the threshold at 0.5: only the 1-p atom survives per edge
    eps = 0.5 / stats.K_n
    tail = pastur_lhs_bernoulli(params, eps)
    want_total = math.comb(100, 3) * 0.081
    assert tail.total == pytest.approx(want_total, rel=1e-12)
    rhs_scale = math.exp(tail.log_rhs_scale)
    assert rhs_scale == pytest.approx(100**2 * stats.sigma_sq / 3**4, rel=1e-12)
    assert math.exp(tail.log_ratio) == pytest.approx(tail.total / rhs_scale, rel=1e-12)

    # threshold beyond both atoms: empty indicator
    eps = 1.01 * 0.9 / stats.K_n
    assert pastur_lhs_bernoulli(params, eps).total == 0.0

    prev_b = prev_g = math.inf
    for eps in (0.01, 0.1, 0.5, 1.0, 5.0, 50.0):
        b = pastur_lhs_bernoulli(params, eps).total
        g = pastur_lhs_gaussian(params, eps).total
        assert b <= prev_b and g <= prev_g
        prev_b, prev_g = b, g


def test_pastur_gaussian_zero_eps_limit():
    # eps -> 0 recovers the full second moment per variable
    params = ModelParams.of(50, [3], [0.25])
    tail = pastur_lhs_gaussian(params, 1e-300)
    want = math.comb(50, 3) * 0.25 * 0.75
    assert tail.total == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# Chatterjee-style Stieltjes bound


def _hand_bound(n: int, r: int, p: float, z: complex, eps: float) -> float:
    """Assemble the bound directly from the moment helpers."""
    params = ModelParams.of(n, [r], [p])
    stats = derive_stats(params)
    b = z.imag
    sig = math.sqrt(stats.sigma_sq)
    lam2 = 2.0 * max(b**-3, b**-4) * r**2 * (r - 1) ** 2 / (n**2 * stats.sigma_sq)
    lam3 = (
        6.0
        * max(b**-6, b**-4.5, b**-4)
        * r**3
        * (r - 1) ** 3
        / (n**2.5 * stats.sigma_sq * sig)
    )
    t = eps * stats.K_n
    m = math.comb(n, r)
    tail_b = m * bernoulli_tail_second_moment(p, t)
    tail_g = m * gaussian_tail_second_moment(math.sqrt(p * (1 - p)), t)
    trunc3 = m * (
        bernoulli_truncated_third_moment(p, t)
        + gaussian_truncated_third_moment(math.sqrt(p * (1 - p)), t)
    )
    return 2.0 * lam2 * (tail_b + tail_g) + lam3 * trunc3 / 3.0


def test_chatterjee_matches_hand_assembly():
    for n, r, p, z, eps in [
        (100, 3, 0.1, 1j, 1.0),
        (400, 3, 0.1, 1j, 1.0),
        (50, 4, 0.3, 0.5 + 0.7j, 2.0),
        (200, 2, 0.05, -1.0 + 2.0j, 0.5),
    ]:
        bound = chatterjee_bound(ModelParams.of(n, [r], [p]), z, eps)
        assert isinstance(bound, ChatterjeeBound)
        assert bound.total >= 0.0
        assert bound.total == pytest.approx(_hand_bound(n, r, p, z, eps), rel=1e-12)


def test_chatterjee_regression_pin():
    # frozen after verification against the hand-assembled formula above
    bound = chatterjee_bound(ModelParams.of(100, [3], [0.1]), 1j, 1.0)
    assert bound.total == pytest.approx(37.851353304043165, rel=1e-12)


def test_chatterjee_log_space_fallback():
    # lambda3 overflows and the truncated third moments underflow to 0, so the
    # linear form would give inf * 0 = nan; the log-space sum keeps the
    # lambda2 term, which is all there is
    bound = chatterjee_bound(ModelParams.of(1000, [2], [1e-300]), 1j, 1.0)
    assert math.isinf(bound.lambda3_bound)
    assert bound.trunc3_sum == 0.0
    assert math.isfinite(bound.total)
    term1 = 2.0 * bound.lambda2_bound * (bound.tail_sum_bernoulli + bound.tail_sum_gaussian)
    assert bound.total == pytest.approx(term1, rel=1e-12)
    assert bound.total == pytest.approx(10.163961922031376, rel=1e-12)
    assert bound.log_total == pytest.approx(2.318848319094286, rel=1e-12)


def test_chatterjee_decreasing_in_n():
    totals = [
        chatterjee_bound(ModelParams.of(n, [3], [0.1]), 1j, 1.0).total
        for n in (100, 400, 1600, 6400)
    ]
    assert all(t > 0.0 for t in totals)
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_chatterjee_domain():
    params = ModelParams.of(50, [3], [0.2])
    with pytest.raises(ValueError):
        chatterjee_bound(params, 1.0 + 0.0j, 1.0)
    with pytest.raises(ValueError):
        chatterjee_bound(params, 1.0 - 2.0j, 1.0)
    with pytest.raises(ValueError):
        chatterjee_bound(params, 1j, 0.0)


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModelParams.of(5, [3, 2], [0.5, 0.5]), "class sizes must be non-decreasing"),
        (lambda: ModelParams.of(5, [2], [1.5]), "class 0: probability 1.5 outside [0, 1]"),
        (lambda: ModelParams(n=5, classes=()), "need at least one size class"),
        (lambda: ModelParams.of(5, [2, 3], [0.5]), "got 2 sizes but 1 probabilities"),
        (lambda: pastur_lhs_bernoulli(ModelParams.of(50, [3], [0.2]), 0.0), "eps must be positive, got 0.0"),
    ],
    ids=[
        "decreasing-sizes", "p-above-1", "no-classes", "unequal-lists", "pastur-eps",
    ],
)
def test_theory_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_chatterjee_reports_degenerate_model_before_eps():
    # the eps check belongs to the Pastur tails, which run after derive_stats
    with pytest.raises(DegenerateModelError):
        chatterjee_bound(ModelParams.of(5, [2], [1.0]), 1j, 0.0)


def test_gaussian_moments_at_extreme_scales():
    # t / sigma overflows to inf: no tail mass is left
    assert gaussian_tail_second_moment(1e-320, 1.0) == 0.0
    # past a = 1e8 the truncated third moment is its a -> inf limit E|Z|^3
    assert gaussian_truncated_third_moment(1.0, 1e9) == pytest.approx(
        4.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )
