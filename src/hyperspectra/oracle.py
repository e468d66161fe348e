"""Exact brute-force reference values for tiny models.

Enumerates all 2^M edge configurations (M = total number of possible
hyperedges) with their exact probabilities, so anything computable from the
adjacency matrix gets an exact expectation.  Intentionally independent of the
sampler: only the closed-form entry statistics are shared.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .theory import ModelParams, derive_stats

__all__ = ["ExactCovariances", "ExactMoments", "exact_eesd_moments", "exact_covariances"]

_MAX_EDGE_VARIABLES = 20
_MAX_MOMENT = 8
_BATCH = 8192


def _edge_catalog(params: ModelParams) -> tuple[list[tuple[int, ...]], np.ndarray]:
    edges: list[tuple[int, ...]] = []
    p_edge: list[float] = []
    for r, p in params.classes:
        for combo in itertools.combinations(range(params.n), r):
            edges.append(combo)
            p_edge.append(p)
    if len(edges) > _MAX_EDGE_VARIABLES:
        raise ValueError(
            f"{len(edges)} possible hyperedges exceed the enumeration cap "
            f"{_MAX_EDGE_VARIABLES}"
        )
    return edges, np.asarray(p_edge, dtype=np.float64)


def _config_batches(M: int, p_edge: np.ndarray):
    """Yield (h, prob) for all 2^M configurations, h in {0,1}^(B, M)."""
    shifts = np.arange(M, dtype=np.int32)
    for start in range(0, 1 << M, _BATCH):
        stop = min(start + _BATCH, 1 << M)
        idx = np.arange(start, stop, dtype=np.int32)
        h = ((idx[:, None] >> shifts) & 1).astype(np.float64)
        prob = np.prod(np.where(h == 1.0, p_edge, 1.0 - p_edge), axis=1)
        yield h, prob


@dataclass(frozen=True)
class ExactMoments:
    """Exact moments of the per-draw traces t_k = (1/n) trace(H^k), k = 1..K:
    ``moments[k - 1]`` = E[t_k], the EESD moment m_k, and
    ``second_moments[k - 1]`` = E[t_k^2]."""

    moments: tuple[float, ...]
    second_moments: tuple[float, ...]

    def variance(self, k: int) -> float:
        """Var t_k, the variance of one draw's (1/n) trace(H^k)."""
        return max(self.second_moments[k - 1] - self.moments[k - 1] ** 2, 0.0)


def exact_eesd_moments(params: ModelParams, max_k: int) -> ExactMoments:
    """Exact moments m_1, ..., m_max_k of the expected ESD of the centered,
    scaled matrix, and the second moments of the traces they average, by
    one full configuration enumeration.

    m_k = E[(1/n) trace(H^k)].  Needs M <= 20 and max_k <= 8.
    """
    if not isinstance(max_k, int) or not 1 <= max_k <= _MAX_MOMENT:
        raise ValueError(f"max_k must be an integer in 1..{_MAX_MOMENT}, got {max_k!r}")
    edges, p_edge = _edge_catalog(params)
    M = len(edges)
    n = params.n
    stats = derive_stats(params)
    scale = math.sqrt(n * stats.sigma_sq)

    Q = np.zeros((M, n * n), dtype=np.float64)
    for l, combo in enumerate(edges):
        for u, v in itertools.combinations(combo, 2):
            Q[l, u * n + v] = 1.0
            Q[l, v * n + u] = 1.0
    EA = stats.mu * (np.ones((n, n)) - np.eye(n))

    acc = np.zeros(max_k + 1, dtype=np.float64)
    acc_sq = np.zeros(max_k + 1, dtype=np.float64)
    for h, prob in _config_batches(M, p_edge):
        A = (h @ Q).reshape(-1, n, n)
        H = (A - EA) / scale
        cur = H
        for k in range(1, max_k + 1):
            if k > 1:
                cur = cur @ H
            trace = np.einsum("bii->b", cur)
            acc[k] += prob @ trace
            acc_sq[k] += prob @ (trace * trace)
    return ExactMoments(
        moments=tuple(float(x) / n for x in acc[1:]),
        second_moments=tuple(float(x) / n**2 for x in acc_sq[1:]),
    )


@dataclass(frozen=True)
class ExactCovariances:
    """Unnormalized covariances of two adjacency entries: sharing exactly one
    vertex, and vertex-disjoint."""

    shared_vertex: float
    disjoint: float


def _class_covariances(n: int, r: int, p: float) -> tuple[float, float]:
    edges = list(itertools.combinations(range(n), r))
    M = len(edges)
    if M > _MAX_EDGE_VARIABLES:
        raise ValueError(
            f"{M} possible size-{r} hyperedges exceed the enumeration cap "
            f"{_MAX_EDGE_VARIABLES}"
        )
    p_edge = np.full(M, p, dtype=np.float64)

    def member(u: int, v: int) -> np.ndarray:
        return np.asarray(
            [1.0 if (u in e and v in e) else 0.0 for e in edges], dtype=np.float64
        )

    q12, q13, q34 = member(0, 1), member(0, 2), member(2, 3)
    e12 = e13 = e34 = 0.0
    e12_13 = e12_34 = 0.0
    for h, prob in _config_batches(M, p_edge):
        a12, a13, a34 = h @ q12, h @ q13, h @ q34
        e12 += prob @ a12
        e13 += prob @ a13
        e34 += prob @ a34
        e12_13 += prob @ (a12 * a13)
        e12_34 += prob @ (a12 * a34)
    return float(e12_13 - e12 * e13), float(e12_34 - e12 * e34)


def exact_covariances(params: ModelParams) -> ExactCovariances:
    """Cov(A_12, A_13) and Cov(A_12, A_34) by full enumeration; n in 4..8.

    Classes are independent, so their covariances add; enumerating one class
    at a time keeps the configuration count at 2^C(n, r_i) per class.
    """
    if not 4 <= params.n <= 8:
        raise ValueError(f"need 4 <= n <= 8 for both entry pairs, got n = {params.n}")
    shared = disjoint = 0.0
    for r, p in params.classes:
        s, d = _class_covariances(params.n, r, p)
        shared += s
        disjoint += d
    return ExactCovariances(shared_vertex=shared, disjoint=disjoint)
