"""Exact brute-force reference values for tiny models.

Enumerates all 2^M edge configurations (M = total number of possible
hyperedges) with their exact probabilities, so anything computable from the
adjacency matrix gets an exact expectation.  Intentionally independent of the
sampler: only the closed-form entry statistics are shared.

The enumeration meets in the middle.  The M edge variables are split into a
low half of ceil(M/2) and a high half of floor(M/2); each half's partial
values (summed over its present edges) and probabilities are tabulated once,
and every configuration is a low entry plus a high entry, weighted by the
product of their probabilities.  Each step pairs the whole low table with a
few high entries, so it holds about 2^ceil(M/2) * n^2 floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .theory import ModelParams, derive_stats

__all__ = [
    "ExactCovariances",
    "ExactMoments",
    "check_oracle_domain",
    "exact_eesd_moments",
    "exact_covariances",
]

_MAX_EDGE_VARIABLES = 20
_MAX_MOMENT = 8
# floats of one enumeration step's (high entries, low table, values) array
_STEP_FLOATS = 2**15


def _check_edge_variables(M: int, what: str = "") -> None:
    if M > _MAX_EDGE_VARIABLES:
        raise ValueError(
            f"{M} possible {what}hyperedges exceed the enumeration cap "
            f"{_MAX_EDGE_VARIABLES}"
        )


def _check_entry_pairs(n: int) -> None:
    if not 4 <= n <= 8:
        raise ValueError(f"need 4 <= n <= 8 for both entry pairs, got n = {n}")


def check_oracle_domain(params: ModelParams) -> None:
    """Raise ValueError, before any enumeration, unless both oracles accept
    ``params``: at most 20 possible hyperedges in all, and 4 <= n <= 8."""
    _check_edge_variables(sum(math.comb(params.n, r) for r in params.r))
    _check_entry_pairs(params.n)


def _half_table(rows: np.ndarray, p_edge: np.ndarray, start: np.ndarray):
    """Values start + sum of the present edges' rows, and probabilities, of
    the 2^m configurations of m edge variables; bit l of a configuration's
    index is edge l."""
    values = start[None, :]
    weights = np.ones(1)
    for row, p in zip(rows, p_edge):
        values = np.concatenate((values, values + row))
        weights = np.concatenate((weights * (1.0 - p), weights * p))
    return values, weights


def _configurations(rows: np.ndarray, p_edge: np.ndarray, start: np.ndarray):
    """Yield (values, weights) over all 2^M configurations, the whole low
    table with a few high-half entries at a time: values (B, d) are start
    plus the rows of the present edges, weights (B,) their probabilities.
    The values array is one buffer, overwritten by the next step."""
    m_lo = (len(rows) + 1) // 2
    lo, w_lo = _half_table(rows[:m_lo], p_edge[:m_lo], start)
    hi, w_hi = _half_table(rows[m_lo:], p_edge[m_lo:], np.zeros_like(start))
    step = max(_STEP_FLOATS // lo.size, 1)
    buffer = np.empty((min(step, len(hi)), *lo.shape))
    for j in range(0, len(hi), step):
        part = hi[j : j + step, None, :]
        values = np.add(lo, part, out=buffer[: len(part)])
        yield values.reshape(-1, lo.shape[1]), (w_hi[j : j + step, None] * w_lo).ravel()


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

    m_k = E[(1/n) trace(H^k)].  Needs M <= 20 and max_k <= 8.  H is
    symmetric, so trace(H^k) = <H^a, H^(k-a)> (Frobenius) with a = floor(k/2):
    up to k = 4 only H^2 is multiplied out.
    """
    if not isinstance(max_k, int) or not 1 <= max_k <= _MAX_MOMENT:
        raise ValueError(f"max_k must be an integer in 1..{_MAX_MOMENT}, got {max_k!r}")
    n = params.n
    _check_edge_variables(sum(math.comb(n, r) for r in params.r))
    stats = derive_stats(params)
    scale = math.sqrt(n * stats.sigma_sq)

    rows, p_edge = [], []
    for r, p in params.classes:
        for combo in itertools.combinations(range(n), r):
            row = np.zeros((n, n))
            for u, v in itertools.combinations(combo, 2):
                row[u, v] = row[v, u] = 1.0 / scale
            rows.append(row.ravel())
            p_edge.append(p)
    centre = -stats.mu / scale * (np.ones((n, n)) - np.eye(n))

    acc = np.zeros(max_k)
    acc_sq = np.zeros(max_k)
    buffers = None  # H^2 .. H^ceil(max_k/2) of a step, reused like its values
    for values, weights in _configurations(np.asarray(rows), np.asarray(p_edge), centre.ravel()):
        H = values.reshape(-1, n, n)
        if buffers is None:
            buffers = [np.empty_like(H) for _ in range((max_k - 1) // 2)]
        powers = [H]
        for buffer in buffers:
            powers.append(np.matmul(powers[-1], H, out=buffer[: len(H)]))
        flat = [P.reshape(len(H), -1) for P in powers]
        t = np.empty((max_k, len(H)))
        t[0] = np.einsum("bii->b", H)
        for k in range(2, max_k + 1):
            t[k - 1] = np.einsum("bi,bi->b", flat[k // 2 - 1], flat[(k + 1) // 2 - 1])
        acc += t @ weights
        acc_sq += (t * t) @ weights
    return ExactMoments(
        moments=tuple(float(x) / n for x in acc),
        second_moments=tuple(float(x) / n**2 for x in acc_sq),
    )


@dataclass(frozen=True)
class ExactCovariances:
    """Unnormalized covariances of two adjacency entries: sharing exactly one
    vertex, and vertex-disjoint."""

    shared_vertex: float
    disjoint: float


def _class_covariances(n: int, r: int, p: float) -> tuple[float, float]:
    edges = list(itertools.combinations(range(n), r))
    _check_edge_variables(len(edges), f"size-{r} ")
    # per edge, whether it holds vertex pairs (0,1), (0,2) and (2,3)
    rows = np.asarray(
        [[float(u in e and v in e) for u, v in ((0, 1), (0, 2), (2, 3))] for e in edges]
    )
    e = np.zeros(5)
    for values, weights in _configurations(rows, np.full(len(edges), p), np.zeros(3)):
        a12, a13, a34 = values.T
        e += np.stack((a12, a13, a34, a12 * a13, a12 * a34)) @ weights
    e12, e13, e34, e12_13, e12_34 = e
    return float(e12_13 - e12 * e13), float(e12_34 - e12 * e34)


def exact_covariances(params: ModelParams) -> ExactCovariances:
    """Cov(A_12, A_13) and Cov(A_12, A_34) by full enumeration; n in 4..8.

    Classes are independent, so their covariances add; enumerating one class
    at a time keeps the configuration count at 2^C(n, r_i) per class.
    """
    _check_entry_pairs(params.n)
    shared = disjoint = 0.0
    for r, p in params.classes:
        s, d = _class_covariances(params.n, r, p)
        shared += s
        disjoint += d
    return ExactCovariances(shared_vertex=shared, disjoint=disjoint)
