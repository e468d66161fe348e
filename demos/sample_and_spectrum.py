"""Draw one hypergraph, center and scale its adjacency, look at the spectrum."""

import numpy as np

from hyperspectra import (
    ModelParams,
    adjacency,
    center_scale,
    eigenvalues,
    esd,
    moment,
    sample_hypergraph,
)

params = ModelParams.of(400, [2, 3], [0.1, 0.002])
h = sample_hypergraph(params, seed=7)
for edges in h.classes:
    print(f"size {edges.shape[1]}: {len(edges)} hyperedges")

A = adjacency(h)
print("adjacency: max entry", int(A.max()), "- mean degree", float(A.sum(1).mean()))

# center by the entry mean, scale by sqrt(n * entry variance)
H = center_scale(A, params)
eigs = eigenvalues(H)
print("eigenvalue range:", float(eigs[0]), "to", float(eigs[-1]))

m = esd(eigs)
print("spectral moments m2, m4:", moment(m, 2), moment(m, 4))
print("m2 target (n-1)/n      :", (params.n - 1) / params.n)

# the bulk should be symmetric around zero
print("median eigenvalue      :", float(np.median(eigs)))
