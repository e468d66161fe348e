"""Sampling non-uniform random hypergraphs and turning them into matrices.

A sampled hypergraph holds, per size class, the realized hyperedges as rows
of a (m_i, r_i) integer array.  Vertex indices are 0-based internally and
1-based in files and messages.  Pair-membership subset indicator matrices are
never materialized; the adjacency matrix is accumulated directly from the
edge lists.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, SamplerStallError
from .theory import ModelParams, derive_stats, log_binomial, _logsumexp

__all__ = [
    "SamplerBudget",
    "EdgeClass",
    "Hypergraph",
    "log_expected_edges",
    "sample_hypergraph",
    "adjacency",
    "center_scale",
    "degree_count",
    "write_hypergraph_text",
    "read_hypergraph_text",
]

# Largest population for which a Binomial count is drawn directly; beyond
# this the population is not exactly representable in a double and the count
# is drawn as Poisson(population * p) instead.
_EXACT_POPULATION_LIMIT = 2 ** 53


@dataclass(frozen=True)
class SamplerBudget:
    """Feasibility limits for the edge sampler.

    max_edges       refuse models whose expected total edge count exceeds this
    max_rejections  cap on rejection-sampling retries per requested edge
    """

    max_edges: int = 10_000_000
    max_rejections: int = 10_000

    def __post_init__(self) -> None:
        if self.max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.max_rejections < 1:
            raise ValueError(f"max_rejections must be >= 1, got {self.max_rejections}")


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Collapse each edge row to a single comparable key for dedup."""
    m, r = rows.shape
    if r * math.log2(max(n, 2)) <= 62.0:
        keys = rows[:, 0].astype(np.int64)
        for j in range(1, r):
            keys = keys * n + rows[:, j]
        return keys
    flat = np.ascontiguousarray(rows)
    return flat.view([("", flat.dtype)] * r).ravel()


@dataclass(frozen=True, eq=False)
class EdgeClass:
    """Realized hyperedges of one size class: rows strictly ascending,
    pairwise distinct, values in [0, n)."""

    r: int
    edges: np.ndarray


@dataclass(frozen=True, eq=False)
class Hypergraph:
    n: int
    classes: tuple[EdgeClass, ...]
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer vertex count n >= 2, got {self.n!r}")
        prev_r = 0
        cleaned = []
        for i, cls in enumerate(self.classes):
            r = int(cls.r)
            if r < 2 or r > self.n:
                raise ValueError(f"class {i}: size {r} outside 2..{self.n}")
            if r < prev_r:
                raise ValueError("class sizes must be non-decreasing")
            prev_r = r
            edges = np.asarray(cls.edges)
            if edges.size == 0:
                edges = edges.reshape(0, r)
            if edges.ndim != 2 or edges.shape[1] != r:
                raise ValueError(
                    f"class {i}: edge array shape {edges.shape} does not match size {r}"
                )
            if not np.issubdtype(edges.dtype, np.integer):
                raise ValueError(f"class {i}: edge indices must be integers")
            edges = np.ascontiguousarray(edges, dtype=np.int32)
            if edges.shape[0]:
                if edges.min() < 0 or edges.max() >= self.n:
                    raise ValueError(f"class {i}: vertex index outside 0..{self.n - 1}")
                if r > 1 and not np.all(np.diff(edges, axis=1) > 0):
                    raise ValueError(f"class {i}: edge rows must be strictly ascending")
                # sort, not np.unique: unique's hash-table path is ~80x slower here
                keys = np.sort(_row_keys(edges, self.n))
                if (keys[1:] == keys[:-1]).any():
                    raise ValueError(f"class {i}: duplicate edges")
            edges.setflags(write=False)
            cleaned.append(EdgeClass(r=r, edges=edges))
        object.__setattr__(self, "classes", tuple(cleaned))
        object.__setattr__(self, "notes", tuple(str(s) for s in self.notes))

    @property
    def edge_counts(self) -> tuple[int, ...]:
        return tuple(cls.edges.shape[0] for cls in self.classes)


def _enumerate_subsets(n: int, r: int, pop: int) -> np.ndarray:
    if pop <= 100_000:
        return _enumerate_subsets_cached(n, r, pop)
    return _enumerate_subsets_fresh(n, r, pop)


@functools.lru_cache(maxsize=64)
def _enumerate_subsets_cached(n: int, r: int, pop: int) -> np.ndarray:
    out = _enumerate_subsets_fresh(n, r, pop)
    out.setflags(write=False)
    return out


def _enumerate_subsets_fresh(n: int, r: int, pop: int) -> np.ndarray:
    if r == 2:
        iu, iv = np.triu_indices(n, 1)
        return np.column_stack((iu, iv)).astype(np.int32)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), r)),
        dtype=np.int32,
        count=pop * r,
    )
    return flat.reshape(pop, r)


def _dedup_keep_first(rows: np.ndarray, n: int) -> np.ndarray:
    _, first = np.unique(_row_keys(rows, n), return_index=True)
    first.sort()
    return rows[first]


def _draw_distinct(
    rng: np.random.Generator, n: int, r: int, count: int, max_rejections: int
) -> np.ndarray:
    """First ``count`` distinct r-subsets from a uniform i.i.d. stream."""
    kept = np.empty((0, r), dtype=np.int32)
    allowed = (count + 16) * max_rejections
    drawn = 0
    # i.i.d. vertex draws are wasteful once within-row collisions dominate
    use_perm = r * (r - 1) > n
    base = np.arange(n, dtype=np.int32)
    while kept.shape[0] < count:
        need = count - kept.shape[0]
        batch = max(2 * need + 16, 64)
        if use_perm:
            batch = min(batch, max(4_000_000 // n, 1))
            cand = rng.permuted(np.tile(base, (batch, 1)), axis=1)[:, :r]
        else:
            batch = min(batch, 4_000_000)
            cand = rng.integers(0, n, size=(batch, r), dtype=np.int32)
        drawn += batch
        cand.sort(axis=1)
        if not use_perm and r > 1:
            cand = cand[np.all(np.diff(cand, axis=1) > 0, axis=1)]
        kept = _dedup_keep_first(np.vstack((kept, cand)), n)
        if kept.shape[0] < count and drawn > allowed:
            raise SamplerStallError(
                f"could not draw {count} distinct {r}-subsets of {n} vertices "
                f"within {allowed} candidate draws"
            )
    return kept[:count]


def log_expected_edges(params: ModelParams) -> float:
    """ln of the expected total edge count, sum_i C(n, r_i) p_i.

    Avoids derive_stats: sampling stays legal for zero-variance models
    (every p_i in {0, 1}), where derived statistics are undefined.
    """
    return _logsumexp(
        log_binomial(params.n, r) + (math.log(p) if p > 0.0 else float("-inf"))
        for r, p in params.classes
    )


def sample_hypergraph(
    params: ModelParams,
    seed: int,
    budget: SamplerBudget | None = None,
) -> Hypergraph:
    """Draw one hypergraph from the model.

    Per class the edge count K_i is Binomial(C(n, r_i), p_i), or
    Poisson(C(n, r_i) p_i) when the population exceeds 2^53 (recorded in the
    result's notes); the K_i edges are then uniform distinct r_i-subsets.
    Refuses models whose expected total edge count exceeds the budget,
    checked in log space before anything is drawn.  Identical
    (params, seed, budget) give a bit-identical result.
    """
    if budget is None:
        budget = SamplerBudget()
    log_expected = log_expected_edges(params)
    if log_expected > math.log(budget.max_edges):
        raise BudgetExceededError(
            f"expected edge count exp({log_expected:.3f}) exceeds "
            f"budget.max_edges = {budget.max_edges}",
            log_expected,
        )
    rng = np.random.default_rng(seed)
    n = params.n
    classes: list[EdgeClass] = []
    notes: list[str] = []
    for i, (r, p) in enumerate(params.classes):
        log_pop = log_binomial(n, r)
        if log_pop <= math.log(_EXACT_POPULATION_LIMIT):
            pop = math.comb(n, r)
        else:
            pop = None
        if p == 0.0:
            count = 0
        elif pop is not None:
            count = int(rng.binomial(pop, p))
        else:
            lam = math.exp(log_pop + math.log(p))
            count = int(rng.poisson(lam))
            notes.append(
                f"class {i}: edge count drawn as Poisson({lam:.6g}); "
                f"population C({n},{r}) exceeds 2^53"
            )
        if count == 0:
            edges = np.empty((0, r), dtype=np.int32)
        elif pop is not None and 2 * count > pop and pop <= budget.max_edges:
            # enumerate-and-thin: uniform K-subset of the full edge list
            full = _enumerate_subsets(n, r, pop)
            idx = rng.choice(pop, size=count, replace=False)
            idx.sort()
            edges = full[idx]
        else:
            edges = _draw_distinct(rng, n, r, count, budget.max_rejections)
        classes.append(EdgeClass(r=r, edges=edges))
    return Hypergraph(n=n, classes=tuple(classes), notes=tuple(notes))


def adjacency(h: Hypergraph) -> np.ndarray:
    """Dense symmetric pair-count matrix with zero diagonal, uint32.

    Entry (u, v) counts the hyperedges containing both u and v, summed over
    classes.  Cost is O(sum_i m_i r_i^2) plus one dense n x n buffer.
    """
    n = h.n
    counts = np.zeros(n * n, dtype=np.int64)
    for cls in h.classes:
        edges = cls.edges
        if edges.shape[0] == 0:
            continue
        iu, iv = np.triu_indices(cls.r, 1)
        a = edges[:, iu].astype(np.int64).ravel()
        b = edges[:, iv].astype(np.int64).ravel()
        counts += np.bincount(a * n + b, minlength=n * n)
    upper = counts.reshape(n, n)
    out = upper + upper.T
    if out.max(initial=0) > 0xFFFFFFFF:
        raise ValueError("pair count exceeds 32-bit unsigned range")
    return out.astype(np.uint32)


def center_scale(A: np.ndarray, params: ModelParams) -> np.ndarray:
    """Centered, scaled matrix H = (A - mu) / sqrt(n sigma^2) off-diagonal,
    zero on the diagonal."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if A.shape[0] != params.n:
        raise ValueError(f"matrix is {A.shape[0]} x {A.shape[0]} but params.n = {params.n}")
    stats = derive_stats(params)
    scale_sq = params.n * stats.sigma_sq
    if not math.isfinite(scale_sq) or scale_sq <= 0.0:
        raise ValueError(f"scale sqrt(n sigma^2) not representable: n sigma^2 = {scale_sq}")
    H = (A.astype(np.float64) - stats.mu) / math.sqrt(scale_sq)
    np.fill_diagonal(H, 0.0)
    return H


def degree_count(h: Hypergraph, v: int) -> tuple[int, ...]:
    """Number of hyperedges containing vertex v (1-based), per class."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} outside 1..{h.n}")
    v0 = v - 1
    return tuple(
        int(np.count_nonzero((cls.edges == v0).any(axis=1))) if cls.edges.size else 0
        for cls in h.classes
    )


# ---------------------------------------------------------------------------
# text interchange format
#
# line 1: "n k"; then per class a header "r_i m_i" followed by m_i lines of
# r_i strictly ascending 1-based vertex indices.  UTF-8, LF line endings.


# rows formatted per % operation; bounds the block's string and tuple memory
_WRITE_BLOCK_ROWS = 65_536


def write_hypergraph_text(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{h.n} {len(h.classes)}\n")
        for cls in h.classes:
            fh.write(f"{cls.r} {cls.edges.shape[0]}\n")
            line = " ".join(["%d"] * cls.r) + "\n"
            for start in range(0, cls.edges.shape[0], _WRITE_BLOCK_ROWS):
                block = cls.edges[start : start + _WRITE_BLOCK_ROWS] + 1
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def read_hypergraph_text(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def take(count: int, what: str) -> list[int]:
        nonlocal pos
        chunk = tokens[pos : pos + count]
        if len(chunk) < count:
            raise ValueError(f"truncated hypergraph file: expected {what}")
        pos += count
        try:
            return [int(t) for t in chunk]
        except ValueError as exc:
            raise ValueError(f"bad integer in hypergraph file near {what}") from exc

    n, k = take(2, "header 'n k'")
    classes = []
    for i in range(k):
        r, m = take(2, f"class {i} header 'r m'")
        if r < 2:
            raise ValueError(f"class {i}: size {r} below 2")
        if m < 0:
            raise ValueError(f"class {i}: negative edge count")
        flat = take(r * m, f"class {i} edges")
        edges = np.asarray(flat, dtype=np.int64).reshape(m, r) - 1
        classes.append(EdgeClass(r=r, edges=edges))
    if pos != len(tokens):
        raise ValueError("trailing data after the last declared edge")
    return Hypergraph(n=n, classes=tuple(classes))
