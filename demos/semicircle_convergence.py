"""Kolmogorov-Smirnov distance to the predicted semicircle as n grows."""

import numpy as np

from hyperspectra import (
    ModelParams,
    SemicircleLaw,
    adjacency,
    center_scale,
    eigenvalues,
    esd,
    ks_distance,
    predicted_variance,
    sample_hypergraph,
)

TRIALS = 3

print("     n   s2_pred        KS")
for n in (100, 200, 400, 800):
    params = ModelParams.of(n, [2, 3], [0.08, 0.004])
    s2 = predicted_variance(params)
    pooled = np.concatenate(
        [
            eigenvalues(center_scale(adjacency(sample_hypergraph(params, 10 * n + t)), params))
            for t in range(TRIALS)
        ]
    )
    ks = ks_distance(esd(pooled), SemicircleLaw(s2))
    print(f"{n:6d}   {s2:.5f}   {ks:.4f}")

print()
print("the KS column should shrink roughly like n^(-1/2)")
