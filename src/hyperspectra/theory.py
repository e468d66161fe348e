"""Closed-form entry statistics for non-uniform random hypergraph adjacency
matrices.

Model: vertex set {1, ..., n}; k size classes (r_i, p_i); every r_i-subset of
the vertices is a hyperedge independently with probability p_i.  The adjacency
matrix counts, for each vertex pair, the hyperedges containing both vertices.
Everything in this module is a deterministic function of (n, (r_i, p_i)); no
sampling happens here.

Conventions
-----------
per-class edge variance    sigma_i^2 = p_i (1 - p_i)
entry mean                 mu        = sum_i C(n-2, r_i-2) p_i
entry variance             sigma^2   = sum_i C(n-2, r_i-2) sigma_i^2
class weight (finite n)    w_i       = B_i / sum_j B_j,  B_i = C(n-2, r_i-2) sigma_i^2
inverse-square size mix    xi        = sum_i w_i / r_i^2
truncation level           K_n       = sqrt(n sigma^2) / (r_max^6 xi)
per-class expected degree  d_i       = C(n-1, r_i-1) p_i

A binomial coefficient whose lower index is negative is an absent term: it
contributes 0 and is never evaluated.  Sums of nonnegative terms that can
overflow a double are carried in natural-log space throughout; linear-space
values are exposed alongside and degrade to inf/0 when not representable.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateModelError

__all__ = [
    "ModelParams",
    "DerivedStats",
    "CovarianceProfile",
    "PasturTail",
    "ChatterjeeBound",
    "Regime",
    "REGIME_DELTA",
    "log_binomial",
    "derive_stats",
    "log_expected_edges",
    "covariance_profile",
    "limit_variance",
    "predicted_variance",
    "classify_regime_k2",
    "pastur_lhs_bernoulli",
    "pastur_lhs_gaussian",
    "chatterjee_bound",
    "bernoulli_tail_second_moment",
    "bernoulli_truncated_third_moment",
    "gaussian_tail_second_moment",
    "gaussian_truncated_third_moment",
]

_NEG_INF = float("-inf")
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Below this, min(k, n-k) is small enough that exact big-integer evaluation is
# cheap and it sidesteps the lgamma cancellation that dominates when the two
# gamma arguments are huge but the result is small.
_EXACT_BINOMIAL_LIMIT = 512


def _exp(x: float) -> float:
    """exp() that saturates to inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logsumexp(values: Iterable[float]) -> float:
    vals = [v for v in values if v != _NEG_INF]
    if not vals:
        return _NEG_INF
    m = max(vals)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def _stirling_tail(x: float) -> float:
    """Correction series of ln x! beyond (x + 1/2) ln x - x + ln(2 pi)/2.
    Truncation error < 1e-21 for x >= 512."""
    inv_sq = 1.0 / (x * x)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv_sq / 1680.0) * inv_sq) * inv_sq) / x


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k).

    Exact to well under 1e-12 relative error in the returned log for
    n <= 10**6.  Raises ValueError outside the domain 0 <= k <= n; callers
    treat a negative lower index as an absent term and never call in.
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValueError(f"binomial indices must be integers, got ({n!r}, {k!r})")
    if k < 0 or k > n:
        raise ValueError(f"binomial index out of range: C({n}, {k})")
    kk = min(k, n - k)
    if kk == 0:
        return 0.0
    if kk <= _EXACT_BINOMIAL_LIMIT:
        return math.log(math.comb(n, k))
    # Stirling with the three ln x! leading parts combined algebraically:
    # the raw lgamma difference cancels ~n log n down to ~kk log(n/kk) and
    # loses up to eight digits, this form never subtracts large terms.
    mm = n - kk
    return (
        kk * math.log(n / kk)
        + mm * math.log1p(kk / mm)
        + 0.5 * math.log(n / (2.0 * math.pi * kk * mm))
        + _stirling_tail(float(n))
        - _stirling_tail(float(kk))
        - _stirling_tail(float(mm))
    )


def _log_or_neg_inf(x: float) -> float:
    return math.log(x) if x > 0.0 else _NEG_INF


def _log_class_terms(
    params: ModelParams, a: int, xs: Iterable[float]
) -> tuple[float, ...]:
    """Per-class terms ln(C(n-a, r_i-a) x_i) of a class sum, with -inf for
    an absent term (r_i < a) or x_i = 0."""
    n = params.n
    return tuple(
        (log_binomial(n - a, r - a) if r >= a else _NEG_INF) + _log_or_neg_inf(x)
        for r, x in zip(params.r, xs)
    )


# ---------------------------------------------------------------------------
# model parameters


@dataclass(frozen=True)
class ModelParams:
    """Size classes of the random hypergraph.

    n       number of vertices, n >= 2
    classes ((r_1, p_1), ..., (r_k, p_k)) with integers 2 <= r_i <= n, r_i
            non-decreasing (duplicate sizes with distinct p are allowed),
            real numbers 0 <= p_i <= 1 (not bools or strings), and at
            least one p_i > 0.  Nothing is truncated: r_i = 2.9 raises.

    p_i = 1 everywhere is constructible (the complete hypergraph samples
    fine); everything that divides by the entry variance raises the
    degenerate error when all p_i are 0 or 1.
    """

    n: int
    classes: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer vertex count n >= 2, got {self.n!r}")
        classes: list[tuple[int, float]] = []
        for i, (r, p) in enumerate(self.classes):
            try:
                r = operator.index(r)
            except TypeError:
                raise ValueError(f"class {i}: size {r!r} is not an integer") from None
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"class {i}: probability {p!r} is not a real number")
            p = float(p)
            if r < 2 or r > self.n:
                raise ValueError(f"class {i}: size {r} outside 2..{self.n}")
            if classes and r < classes[-1][0]:
                raise ValueError("class sizes must be non-decreasing")
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise ValueError(f"class {i}: probability {p} outside [0, 1]")
            classes.append((r, p))
        if not classes:
            raise ValueError("need at least one size class")
        object.__setattr__(self, "classes", tuple(classes))
        if all(p == 0.0 for _, p in classes):
            raise DegenerateModelError("every class probability is 0; nothing to draw")

    @classmethod
    def of(cls, n: int, r: Sequence[int], p: Sequence[float]) -> "ModelParams":
        if len(r) != len(p):
            raise ValueError(f"got {len(r)} sizes but {len(p)} probabilities")
        return cls(n=n, classes=tuple(zip(r, p)))

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def r(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.classes)

    @property
    def p(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.classes)

    @property
    def r_max(self) -> int:
        return max(self.r)


# ---------------------------------------------------------------------------
# derived statistics


@dataclass(frozen=True)
class DerivedStats:
    """Everything downstream consumers need, precomputed once per model.

    Log-space fields are canonical; mu, sigma_sq and K_n are their linear
    companions and saturate to inf when out of double range.  w_fin are the
    finite-n class weights (they sum to 1); xi and K_n are built from them.

    log_nonsparsity_ratio is ln a_n / (b_n c_n), with a_n = (sum_i r_i d_i)^2,
    b_n = r_max^16 xi^2 and c_n = sum_i d_i / r_i.  For a single class it is
    ln(d / r^9) exactly: a/(bc) = r^2 d^2 / (r^12 * d/r) = d / r^9.
    """

    sigma_i_sq: tuple[float, ...]
    log_B: tuple[float, ...]
    log_mu: float
    mu: float
    log_sigma_sq: float
    sigma_sq: float
    w_fin: tuple[float, ...]
    xi: float
    log_d: tuple[float, ...]
    log_K_n: float
    K_n: float
    log_nonsparsity_ratio: float
    log_class_count: tuple[float, ...]


def derive_stats(params: ModelParams) -> DerivedStats:
    """Closed-form entry statistics of the adjacency matrix for ``params``.

    Pure in ``params`` and computed afresh on every call, in tens of
    microseconds.
    """
    n = params.n
    sigma_i_sq = tuple(p * (1.0 - p) for p in params.p)
    log_B = _log_class_terms(params, 2, sigma_i_sq)
    log_mu = _logsumexp(_log_class_terms(params, 2, params.p))
    log_sigma_sq = _logsumexp(log_B)
    if log_sigma_sq == _NEG_INF:
        raise DegenerateModelError(
            "every class probability is 0 or 1; the entry variance is zero"
        )
    w_fin = tuple(_exp(b - log_sigma_sq) for b in log_B)
    xi = math.fsum(w / (r * r) for w, r in zip(w_fin, params.r))
    log_d = _log_class_terms(params, 1, params.p)
    r_max = params.r_max
    log_K_n = (
        0.5 * (math.log(n) + log_sigma_sq) - 6.0 * math.log(r_max) - math.log(xi)
    )
    # log_d has a finite entry (some p_i > 0), so log_a and log_c are finite
    log_a = 2.0 * _logsumexp(math.log(r) + ld for r, ld in zip(params.r, log_d))
    log_b = 16.0 * math.log(r_max) + 2.0 * math.log(xi)
    log_c = _logsumexp(ld - math.log(r) for r, ld in zip(params.r, log_d))
    log_class_count = tuple(log_binomial(n, r) for r in params.r)
    return DerivedStats(
        sigma_i_sq=sigma_i_sq,
        log_B=log_B,
        log_mu=log_mu,
        mu=_exp(log_mu),
        log_sigma_sq=log_sigma_sq,
        sigma_sq=_exp(log_sigma_sq),
        w_fin=w_fin,
        xi=xi,
        log_d=log_d,
        log_K_n=log_K_n,
        K_n=_exp(log_K_n),
        log_nonsparsity_ratio=log_a - log_b - log_c,
        log_class_count=log_class_count,
    )


def log_expected_edges(params: ModelParams) -> float:
    """ln of the expected total edge count, sum_i C(n, r_i) p_i.

    Avoids derive_stats: sampling stays legal for zero-variance models
    (every p_i in {0, 1}), where derived statistics are undefined.
    """
    return _logsumexp(_log_class_terms(params, 0, params.p))


# ---------------------------------------------------------------------------
# entry covariance profile


@dataclass(frozen=True)
class CovarianceProfile:
    """Normalized covariances of distinct matrix entries.

    gamma_n  covariance of two entries sharing one vertex, over the variance
    rho_n    covariance of two vertex-disjoint entries, over the variance
    theta_sq residual own-randomness weight 1 - 2 gamma_n + rho_n
    """

    rho_n: float
    gamma_n: float
    theta_sq: float


def covariance_profile(params: ModelParams) -> CovarianceProfile:
    """gamma_n, rho_n and theta_sq = 1 - 2 gamma_n + rho_n for ``params``.

    gamma_n = sum_i C(n-3, r_i-3) sigma_i^2 / sum_i C(n-2, r_i-2) sigma_i^2
    rho_n   = sum_i C(n-4, r_i-4) sigma_i^2 / sum_i C(n-2, r_i-2) sigma_i^2

    Classes with r_i < 3 (resp. < 4) contribute absent terms to the
    numerators.  0 <= rho_n <= gamma_n < 1 always.
    """
    stats = derive_stats(params)
    log_gamma_num = _logsumexp(_log_class_terms(params, 3, stats.sigma_i_sq))
    log_rho_num = _logsumexp(_log_class_terms(params, 4, stats.sigma_i_sq))
    gamma_n = _exp(log_gamma_num - stats.log_sigma_sq)
    rho_n = _exp(log_rho_num - stats.log_sigma_sq)
    theta_sq = 1.0 - 2.0 * gamma_n + rho_n
    return CovarianceProfile(rho_n=rho_n, gamma_n=gamma_n, theta_sq=theta_sq)


def limit_variance(weights: Sequence[float], c: Sequence[float]) -> float:
    """Limiting semicircle variance s^2 = sum_i w_i (1 - c_i)^2.

    weights must sum to 1 within 1e-9; each w_i in [0, 1], each c_i in [0, 1).
    """
    if len(weights) != len(c):
        raise ValueError(f"got {len(weights)} weights but {len(c)} size fractions")
    if not weights:
        raise ValueError("need at least one class")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, not 1")
    for i, (w, ci) in enumerate(zip(weights, c)):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"class {i}: weight {w} outside [0, 1]")
        if not 0.0 <= ci < 1.0:
            raise ValueError(f"class {i}: size fraction {ci} outside [0, 1)")
    return math.fsum(w * (1.0 - ci) ** 2 for w, ci in zip(weights, c))


def predicted_variance(params: ModelParams) -> float:
    """Semicircle variance s^2 = sum_i w_i (1 - r_i / n)^2 predicted at this n,
    with the finite-n class weights.

    Unlike ``limit_variance`` this accepts r_i = n; a model whose every
    class has r_i = n predicts 0.
    """
    stats = derive_stats(params)
    return math.fsum(
        w * (1.0 - r / params.n) ** 2 for w, r in zip(stats.w_fin, params.r)
    )


# ---------------------------------------------------------------------------
# two-class regime classification


class Regime(enum.Enum):
    R1_DOMINANT = "r1-dominant"
    BALANCED = "balanced"
    R2_DOMINANT = "r2-dominant"


# a class whose weight w_i is below this counts as negligible
REGIME_DELTA = 0.01


def classify_regime_k2(params: ModelParams) -> Regime:
    """Which of two size classes carries the entry variance at this n.

    w_1 > 1 - REGIME_DELTA: class 1 dominant; w_1 < REGIME_DELTA: class 2
    dominant; otherwise balanced.  Only defined for exactly two classes.
    """
    if params.k != 2:
        raise ValueError(f"regime classification needs exactly 2 classes, got {params.k}")
    w1 = derive_stats(params).w_fin[0]
    if w1 > 1.0 - REGIME_DELTA:
        return Regime.R1_DOMINANT
    if w1 < REGIME_DELTA:
        return Regime.R2_DOMINANT
    return Regime.BALANCED


# ---------------------------------------------------------------------------
# truncated moments of the centered edge laws

def _phi(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _upper_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bernoulli_tail_second_moment(p: float, t: float) -> float:
    """E[X^2 1(|X| > t)] for the two-point law X in {-p, 1-p} with mean 0.

    X = 1 - p with probability p and -p otherwise; the indicator is strict.
    """
    v = 0.0
    if 1.0 - p > t:
        v += p * (1.0 - p) ** 2
    if p > t:
        v += (1.0 - p) * p * p
    return v


def bernoulli_truncated_third_moment(p: float, t: float) -> float:
    """E[|X|^3 1(|X| <= t)] for the same two-point law (complement cut)."""
    v = 0.0
    if 1.0 - p <= t:
        v += p * (1.0 - p) ** 3
    if p <= t:
        v += (1.0 - p) * p ** 3
    return v


def gaussian_tail_second_moment(sigma: float, t: float) -> float:
    """E[Z^2 1(|Z| > t)] for Z ~ N(0, sigma^2).

    Equals sigma^2 * 2 * (a phi(a) + Q(a)) with a = t / sigma, phi the
    standard normal density and Q its upper tail.  Underflows to 0 once
    t is a few tens of sigma; that is the intended behavior.
    """
    if sigma <= 0.0:
        return 0.0
    if t <= 0.0:
        return sigma * sigma
    a = t / sigma
    if math.isinf(a):
        return 0.0
    return sigma * sigma * 2.0 * (a * _phi(a) + _upper_tail(a))


def gaussian_truncated_third_moment(sigma: float, t: float) -> float:
    """E[|Z|^3 1(|Z| <= t)] for Z ~ N(0, sigma^2).

    Equals sigma^3 * (4 phi(0) - 2 (a^2 + 2) phi(a)) with a = t / sigma.
    """
    if sigma <= 0.0 or t <= 0.0:
        return 0.0
    a = t / sigma
    if not math.isfinite(a) or a > 1e8:
        return sigma ** 3 * 4.0 * _phi(0.0)
    val = 4.0 * _phi(0.0) - 2.0 * (a * a + 2.0) * _phi(a)
    return sigma ** 3 * max(val, 0.0)


# ---------------------------------------------------------------------------
# truncation-condition diagnostics


@dataclass(frozen=True)
class PasturTail:
    """Per-class and total truncated-tail mass at threshold eps * K_n.

    Log-space fields are canonical.  ``log_ratio`` compares the total against
    the reference scale n^2 sigma^2 / r_max^4; the underlying condition is
    asymptotic, so this is a finite-n diagnostic, never a verdict.
    """

    threshold: float
    log_per_class: tuple[float, ...]
    log_total: float
    log_rhs_scale: float
    log_ratio: float

    @property
    def total(self) -> float:
        return _exp(self.log_total)


def _pastur_tail(params: ModelParams, eps: float, per_edge) -> PasturTail:
    if not (eps > 0.0) or math.isnan(eps):
        raise ValueError(f"eps must be positive, got {eps}")
    stats = derive_stats(params)
    threshold = _exp(stats.log_K_n + math.log(eps))
    tails = (per_edge(p, s2, threshold) for p, s2 in zip(params.p, stats.sigma_i_sq))
    log_per_class = _log_class_terms(params, 0, tails)
    log_total = _logsumexp(log_per_class)
    log_rhs_scale = (
        2.0 * math.log(params.n)
        + stats.log_sigma_sq
        - 4.0 * math.log(params.r_max)
    )
    return PasturTail(
        threshold=threshold,
        log_per_class=log_per_class,
        log_total=log_total,
        log_rhs_scale=log_rhs_scale,
        log_ratio=log_total - log_rhs_scale,
    )


def pastur_lhs_bernoulli(params: ModelParams, eps: float) -> PasturTail:
    """Tail mass sum_i C(n, r_i) E[X_i^2 1(|X_i| > eps K_n)] for the centered
    Bernoulli edge variables, against the scale n^2 sigma^2 / r_max^4."""
    return _pastur_tail(
        params, eps, lambda p, s2, t: bernoulli_tail_second_moment(p, t)
    )


def pastur_lhs_gaussian(params: ModelParams, eps: float) -> PasturTail:
    """Same tail mass for the matching centered Gaussian edge variables
    Z_i ~ N(0, sigma_i^2)."""
    return _pastur_tail(
        params, eps, lambda p, s2, t: gaussian_tail_second_moment(math.sqrt(s2), t)
    )


# ---------------------------------------------------------------------------
# Stieltjes-distance bound


@dataclass(frozen=True)
class ChatterjeeBound:
    """Upper bound on |S_bernoulli(z) - S_gaussian(z)| between the expected
    Stieltjes transforms of the two edge-level constructions.

    Assembled as  2 * lambda2_bound * (tail_sum_bernoulli + tail_sum_gaussian)
                + (1/3) * lambda3_bound * trunc3_sum
    with the derivative bounds

    lambda2_bound = 2 max(1/b^3, 1/b^4) r_max^2 (r_max-1)^2 / (n^2 sigma^2)
    lambda3_bound = 6 max(1/b^6, 1/b^(9/2), 1/b^4) r_max^3 (r_max-1)^3
                    / (n^(5/2) sigma^3),          b = Im z > 0,

    tail sums the truncated second moments above eps K_n (both edge laws) and
    trunc3_sum the truncated third absolute moments at or below eps K_n.
    """

    lambda2_bound: float
    lambda3_bound: float
    tail_sum_bernoulli: float
    tail_sum_gaussian: float
    trunc3_sum: float
    total: float
    log_total: float


def chatterjee_bound(params: ModelParams, z: complex, eps: float) -> ChatterjeeBound:
    """Evaluate the Stieltjes-distance bound at spectral point z, Im z > 0."""
    z = complex(z)
    b = z.imag
    if not (b > 0.0):
        raise ValueError(f"need Im z > 0, got z = {z}")
    stats = derive_stats(params)
    n = params.n
    r_max = params.r_max
    log_b = math.log(b)
    log_r_term = math.log(r_max) + math.log(r_max - 1)

    log_lambda2 = (
        math.log(2.0)
        + max(-3.0 * log_b, -4.0 * log_b)
        + 2.0 * log_r_term
        - (2.0 * math.log(n) + stats.log_sigma_sq)
    )
    log_lambda3 = (
        math.log(6.0)
        + max(-6.0 * log_b, -4.5 * log_b, -4.0 * log_b)
        + 3.0 * log_r_term
        - (2.5 * math.log(n) + 1.5 * stats.log_sigma_sq)
    )

    bern = pastur_lhs_bernoulli(params, eps)
    gaus = pastur_lhs_gaussian(params, eps)
    threshold = bern.threshold

    trunc3_terms = (
        bernoulli_truncated_third_moment(p, threshold)
        + gaussian_truncated_third_moment(math.sqrt(s2), threshold)
        for p, s2 in zip(params.p, stats.sigma_i_sq)
    )
    log_trunc3 = _logsumexp(_log_class_terms(params, 0, trunc3_terms))

    log_tails = _logsumexp((bern.log_total, gaus.log_total))
    log_term1 = math.log(2.0) + log_lambda2 + log_tails if log_tails != _NEG_INF else _NEG_INF
    log_term2 = log_lambda3 + log_trunc3 - math.log(3.0) if log_trunc3 != _NEG_INF else _NEG_INF
    log_total = _logsumexp((log_term1, log_term2))

    lambda2 = _exp(log_lambda2)
    lambda3 = _exp(log_lambda3)
    tail_b = bern.total
    tail_g = gaus.total
    trunc3 = _exp(log_trunc3)
    # keep the linear assembly exact whenever every part is representable
    if all(map(math.isfinite, (lambda2, lambda3, tail_b, tail_g, trunc3))):
        total = 2.0 * lambda2 * (tail_b + tail_g) + lambda3 * trunc3 / 3.0
    else:
        total = _exp(log_total)
    return ChatterjeeBound(
        lambda2_bound=lambda2,
        lambda3_bound=lambda3,
        tail_sum_bernoulli=tail_b,
        tail_sum_gaussian=tail_g,
        trunc3_sum=trunc3,
        total=total,
        log_total=log_total,
    )
