"""Gaussian surrogate matching the entry covariance profile.

For a profile (rho, gamma, theta^2) the surrogate entry is

    U_uv = theta W_uv + alpha (g_u + g_v) + beta g,   u < v,

with W_uv, g_u, g i.i.d. standard normal, theta = sqrt(theta^2),
alpha = sqrt(gamma - rho), beta = sqrt(rho), so that
theta^2 + 2 alpha^2 + beta^2 = 1.  Then Var U_uv = 1, entries sharing one
vertex have covariance gamma, vertex-disjoint entries rho.  The sampled
matrix is symmetric with zero diagonal, scaled by 1/sqrt(n).  Before the
diagonal is zeroed, the (g_u + g_v) and g parts form a perturbation of
rank at most 2: its column space is span{1, (g_u)}.
"""

from __future__ import annotations

import math

import numpy as np

from .hypergraph import _check_addressable
from .theory import CovarianceProfile

__all__ = ["sample_surrogate"]

# covariance identities can go this far negative through log-space rounding
_PROFILE_SLACK = 1e-12


def sample_surrogate(n: int, profile: CovarianceProfile, seed: int, trials: int = 1) -> np.ndarray:
    """``trials`` independent n x n surrogate matrices for ``profile``, as a
    (trials, n, n) float64 stack: each symmetric, zero diagonal.

    Raises ValueError unless 0 <= rho, gamma <= 1 and gamma - rho and
    theta^2 are nonnegative (within rounding), and MemoryError when the
    stack needs more than sys.maxsize bytes.  Draws W (trials x n x n),
    then g (trials x n), then g0 (trials) from ``default_rng(seed)``; the
    upper triangle of W serves both (u, v) and (v, u).  Identical
    (n, profile, seed, trials) give a bit-identical stack.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    rho, gamma, theta_sq = profile.rho_n, profile.gamma_n, profile.theta_sq
    if not 0.0 <= rho <= 1.0 or not 0.0 <= gamma <= 1.0:
        raise ValueError(f"profile outside [0, 1]: rho={rho}, gamma={gamma}")
    alpha_sq = gamma - rho
    if alpha_sq < -_PROFILE_SLACK or theta_sq < -_PROFILE_SLACK:
        raise ValueError(
            f"inconsistent profile: gamma - rho = {alpha_sq}, theta^2 = {theta_sq}"
        )
    theta = math.sqrt(max(theta_sq, 0.0))
    alpha = math.sqrt(max(alpha_sq, 0.0))
    beta = math.sqrt(rho)

    _check_addressable((trials, n, n))
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((trials, n, n)), 1)
    g = rng.standard_normal((trials, n, 1))
    g0 = rng.standard_normal((trials, 1, 1))
    # (theta (U + U^T) + alpha (g_u + g_v) + beta g0) / sqrt(n), in place
    H = upper + upper.transpose(0, 2, 1)
    del upper
    H *= theta
    pert = g + g.transpose(0, 2, 1)
    pert *= alpha
    pert += beta * g0
    H += pert
    H /= math.sqrt(n)
    H[:, np.arange(n), np.arange(n)] = 0.0
    return H
