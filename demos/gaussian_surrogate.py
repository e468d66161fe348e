"""Linear-size hyperedges are unsamplable directly; the surrogate is not.

With r = 600 of n = 2000 the expected hyperedge count is astronomical, so
no edge list fits in memory. The matched Gaussian model reproduces the
limiting spectrum from three covariance numbers.
"""

import numpy as np

from hyperspectra import (
    ModelParams,
    SemicircleLaw,
    covariance_profile,
    eigenvalues,
    esd,
    ks_distance,
    log_expected_edges,
    predicted_variance,
    sample_surrogate,
)

params = ModelParams.of(2000, [600], [0.3])
print("log10 expected edges:", log_expected_edges(params) / np.log(10.0))

profile = covariance_profile(params)
print("gamma_n  :", profile.gamma_n)
print("rho_n    :", profile.rho_n)
print("theta_sq :", profile.theta_sq)

s2 = predicted_variance(params)
print("s2_pred  :", s2)

eigs = np.concatenate(
    [eigenvalues(sample_surrogate(params.n, profile, seed)) for seed in range(3)]
)
ks = ks_distance(esd(eigs), SemicircleLaw(s2))
print("KS to the s2_pred semicircle:", round(ks, 4))
