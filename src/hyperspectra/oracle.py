"""Exact brute-force reference values for tiny models.

Sums over all 2^M edge configurations (M = total number of possible
hyperedges) with their exact probabilities, so the statistics below get
exact expectations.  Intentionally independent of the sampler: only the
closed-form entry statistics are shared.

The sum meets in the middle.  The M edge variables are split into a low half
of ceil(M/2) and a high half of floor(M/2), and every configuration is a low
configuration plus an independent high one.  Each statistic is written as a
bilinear form f(low) . g(high) of per-half feature rows, so E = E[f] . E[g]
and E[statistic^2] = <E[f f^T], E[g g^T]> (Frobenius): each half reduces to
the probability-weighted mean and Gram matrix of its features over its own
2^ceil(M/2) or 2^floor(M/2) configurations, and no pair of configurations is
ever formed.  The halves are read in tiles of about _TILE_FLOATS floats per
array, so the working set is one tile's arrays and the Gram matrices.
"""

from __future__ import annotations

import functools
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
# tr H^k for k >= 5 has words with three factors from one half, whose
# bilinear form needs features cubic in the other half's coordinates
_MAX_MOMENT = 4
_TILE_FLOATS = 2**15


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


def _members(edges, n: int) -> np.ndarray:
    """(M, n) 0/1 vertex membership of each hyperedge."""
    return np.asarray([[float(u in e) for u in range(n)] for e in edges])


def _halves(rows: np.ndarray, p_edge: np.ndarray, start: np.ndarray):
    """The low half (the first ceil(M/2) edge variables) and the high half,
    each as (basis, p): the half's start followed by its edges' rows, and
    its edges' probabilities.  A configuration's value is start plus the
    present edges' rows, the sum of its two halves' sum_a z_a basis_a.

    The high half's expected value moves from its start to the low half's,
    which leaves every total unchanged; when ``start`` cancels the expected
    value, both halves are centred, so their features stay small.
    """
    m_lo = (len(rows) + 1) // 2
    shift = np.tensordot(p_edge[m_lo:], rows[m_lo:], axes=1)
    return [
        (np.concatenate(([start + shift], rows[:m_lo])), p_edge[:m_lo]),
        (np.concatenate(([-shift], rows[m_lo:])), p_edge[m_lo:]),
    ]


def _half_sums(halves, features, row_floats: int):
    """For each half (basis, p) and each feature block F of
    ``features(z, basis, other_basis, low)``: the probability-weighted sums
    of F and of F^T F over the half's 2^m configurations, as (mean, gram).
    A tile's z (B, m + 1) holds B configurations' coordinates in the half's
    basis: z_0 = 1 and z_l whether edge l is present.  A tile has about
    _TILE_FLOATS / ``row_floats`` configurations."""
    tile = max(1, _TILE_FLOATS // row_floats)
    sums = []
    for side, (basis, p) in enumerate(halves):
        acc = None
        for j in range(0, 2 ** len(p), tile):
            bits = (np.arange(j, min(j + tile, 2 ** len(p)))[:, None] >> np.arange(len(p))) & 1
            w = np.prod(np.where(bits, p, 1.0 - p), axis=1)
            z = np.hstack((np.ones((len(w), 1)), bits))
            blocks = features(z, basis, halves[1 - side][0], side == 0)
            part = [(w @ F, (w[:, None] * F).T @ F) for F in blocks]
            if acc is None:
                acc = part
            else:
                for (mean, gram), (d_mean, d_gram) in zip(acc, part):
                    mean += d_mean
                    gram += d_gram
        sums.append(acc)
    return sums


def _frobenius(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """<A_b, basis_c> for a stack A (..., n, n): shape (..., len(basis))."""
    return np.tensordot(A, basis, axes=([-2, -1], [1, 2]))


def _trace_features(z: np.ndarray, own: np.ndarray, other: np.ndarray, low: bool, max_k: int):
    """Feature blocks F_k, k = 1..max_k, of a tile of one half's
    configurations with coordinates z in the half's basis ``own``
    (``other`` is the other half's basis), such that tr (X + Y)^k =
    F_k(low=True) . F_k(low=False) for a low-half X = sum_a x_a V_a and a
    high-half Y = sum_c y_c W_c, all symmetric:

        tr (X+Y)^k = tr X^k + tr Y^k + k <X^(k-1), Y> + k <X, Y^(k-1)> [k >= 3]
                     + 4 tr(X^2 Y^2) + 2 tr(XYXY) [k = 4]

    (at k = 2 the words XY and YX make the single term 2 <X, Y>).  A mixed
    term pairs one side's coordinates with the other side's power against
    that basis, <X^(k-1), Y> = sum_c y_c <X^(k-1), W_c>; the last two pair
    the high products y_c y_d, c <= d, with 4 tr(X^2 W_c W_d) +
    2 tr(X W_c X W_d), doubled for c < d.  So the feature count depends on
    the halves' sizes, not on n.  The coefficients sit on the low side.
    """
    X = np.tensordot(z, own, axes=1)
    powers = [X]  # X, ..., X^(max_k - 1)
    for _ in range(max_k - 2):
        powers.append(powers[-1] @ X)
    against = [_frobenius(P, other) for P in powers]
    if max_k == 4:
        c, d = np.triu_indices(len(other if low else own))
        if low:
            walks = 4 * _frobenius(powers[1], other[c] @ other[d])
            walks += 2 * _frobenius((X[:, None] @ other) @ X[:, None], other)[:, c, d]
            quartic = walks * np.where(c == d, 1.0, 2.0)
        else:
            quartic = z[:, c] * z[:, d]
    one = np.ones((len(z), 1))
    blocks = []
    for k in range(1, max_k + 1):
        if k == 1:
            trace = np.einsum("bii->b", X)
        else:  # tr X^k = <X^floor(k/2), X^ceil(k/2)>
            trace = np.einsum("bij,bij->b", powers[k // 2 - 1], powers[(k + 1) // 2 - 1])
        terms = [trace[:, None], one] if low else [one, trace[:, None]]
        if k >= 2:
            terms.append(k * against[k - 2] if low else z)
        if k >= 3:
            terms.append(k * z if low else against[k - 2])
        if k == 4:
            terms.append(quartic)
        blocks.append(np.hstack(terms))
    return blocks


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
    scaled matrix, and the second moments of the traces they average, over
    all 2^M edge configurations.

    m_k = E[(1/n) trace(H^k)].  Needs M <= 20 and max_k <= 4.  H = X + Y,
    the low half's partial matrix with the centering term plus the high
    half's, and tr H^k is a bilinear form of per-half features: each half's
    own traces, its powers against the other half's basis, its coordinates,
    and at k = 4 its coordinate products or the closed 4-walks through the
    other half's basis pairs (see ``_trace_features``).
    """
    if not isinstance(max_k, int) or not 1 <= max_k <= _MAX_MOMENT:
        raise ValueError(f"max_k must be an integer in 1..{_MAX_MOMENT}, got {max_k!r}")
    n = params.n
    _check_edge_variables(sum(math.comb(n, r) for r in params.r))
    stats = derive_stats(params)
    scale = math.sqrt(n * stats.sigma_sq)

    edges = [(e, p) for r, p in params.classes for e in itertools.combinations(range(n), r)]
    member = _members([e for e, _ in edges], n)
    off_diagonal = np.ones((n, n)) - np.eye(n)
    rows = member[:, :, None] * member[:, None, :] * off_diagonal / scale
    halves = _halves(rows, np.asarray([p for _, p in edges]), -stats.mu / scale * off_diagonal)

    lo, hi = _half_sums(
        halves,
        functools.partial(_trace_features, max_k=max_k),
        # the low side's (B, basis size, n, n) products are a tile's largest
        len(halves[0][0]) * n * n,
    )
    return ExactMoments(
        moments=tuple(float(m_lo @ m_hi) / n for (m_lo, _), (m_hi, _) in zip(lo, hi)),
        second_moments=tuple(
            float(np.vdot(g_lo, g_hi)) / n**2 for (_, g_lo), (_, g_hi) in zip(lo, hi)
        ),
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
    # entries A_12, A_13 and A_34: vertex pairs (0,1), (0,2) and (2,3)
    member = _members(edges, n)
    rows = member[:, [0, 0, 2]] * member[:, [1, 2, 3]]
    halves = _halves(rows, np.full(len(edges), p), np.zeros(3))
    sums = _half_sums(halves, lambda z, basis, other, low: [z @ basis], 3)
    # the halves are independent, so their covariances add
    cov = sum(gram - np.outer(mean, mean) for ((mean, gram),) in sums)
    return float(cov[0, 1]), float(cov[0, 2])


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
