"""Brute-force enumeration of a four-vertex model against closed forms."""

import numpy as np

from hyperspectra import (
    ModelParams,
    center_scale,
    covariance_profile,
    derive_stats,
    exact_covariances,
    exact_eesd_moments,
    sample_adjacency_batches,
)

# 6 pairs + 4 triples at p = 1/2: 2^10 equally likely hypergraphs
params = ModelParams.of(4, [2, 3], [0.5, 0.5])

exact = exact_eesd_moments(params)
print("exact m1..m4:", exact.moments)
print("m2 identity (n-1)/n:", (params.n - 1) / params.n)

covs = exact_covariances(params)
stats = derive_stats(params)
profile = covariance_profile(params)
print("exact shared-vertex covariance  :", covs.shared_vertex)
print("closed form gamma_n * sigma^2   :", profile.gamma_n * stats.sigma_sq)
print("exact disjoint-pair covariance  :", covs.disjoint)
print("closed form rho_n * sigma^2     :", profile.rho_n * stats.sigma_sq)

# Monte Carlo agrees: trace identities need no eigendecomposition, and the
# trials come as (t, n, n) stacks of pair-count matrices
trials = 20_000
m2s, m4s = [], []
for A in sample_adjacency_batches(params, seed=0, trials=trials):
    H = center_scale(A, params)
    H2 = H @ H
    m2s.append(np.einsum("tii->t", H2) / params.n)
    m4s.append(np.einsum("tij,tij->t", H2, H2) / params.n)
for k, values in ((2, np.concatenate(m2s)), (4, np.concatenate(m4s))):
    se = (exact.variance(k) / trials) ** 0.5
    print(f"monte carlo m{k} = {values.mean():.5f} (exact {exact.moments[k - 1]:.5f}, se {se:.5f})")
