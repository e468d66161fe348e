"""Closed-form statistics for a two-class model, no sampling involved."""

from hyperspectra import (
    ModelParams,
    classify_regime_k2,
    covariance_profile,
    derive_stats,
    predicted_variance,
)

# 500 vertices, pairs at p = 0.05 mixed with triples at p = 0.001
params = ModelParams.of(500, [2, 3], [0.05, 0.001])
stats = derive_stats(params)

print("entry mean mu          :", stats.mu)
print("entry variance sigma^2 :", stats.sigma_sq)
print("class weights w_fin    :", stats.w_fin)
print("weight functional xi   :", stats.xi)
print("scale constant K_n     :", stats.K_n)
print("log nonsparsity ratio  :", stats.log_nonsparsity_ratio)

# the limiting spectral variance predicted for this model
print("predicted s^2          :", predicted_variance(params))

profile = covariance_profile(params)
print("gamma_n, rho_n, theta^2:", profile.gamma_n, profile.rho_n, profile.theta_sq)

# which size class carries the variance, at tolerance 0.01
for p2 in (1e-5, 1e-3, 0.5):
    res = classify_regime_k2(ModelParams.of(500, [3, 4], [0.5, p2]), delta=0.01)
    print(f"p2 = {p2:g}: regime = {res.regime.value}, weights = {res.w_fin}")
