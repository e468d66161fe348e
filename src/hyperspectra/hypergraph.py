"""Sampling non-uniform random hypergraphs and turning them into matrices.

A sampled hypergraph holds, per size class, the realized hyperedges as rows
of a (m_i, r_i) integer array.  Vertex indices are 0-based internally and
1-based in files and messages.  Pair-membership subset indicator matrices are
never materialized; the adjacency matrix is accumulated directly from the
edge lists.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .theory import ModelParams, derive_stats, log_binomial, log_expected_edges

__all__ = [
    "MAX_EDGES",
    "Hypergraph",
    "check_budget",
    "sample_hypergraph",
    "sample_adjacency_batches",
    "adjacency",
    "center_scale",
    "write_hypergraph_text",
    "read_hypergraph_text",
]

# default refusal bound on a model's expected total edge count
MAX_EDGES = 10_000_000


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Collapse each edge row to a single comparable key for dedup, in a new
    array that the caller may sort in place."""
    m, r = rows.shape
    if r * math.log2(max(n, 2)) <= 62.0:
        keys = rows[:, 0].astype(np.int64)
        for j in range(1, r):
            keys *= n
            keys += rows[:, j]
        return keys
    flat = np.ascontiguousarray(rows)
    return flat.view([("", flat.dtype)] * r).ravel().copy()


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Realized hyperedges on vertices 0..n-1, one (m_i, r_i) int32 array per
    size class, sizes non-decreasing: rows strictly ascending, pairwise
    distinct, values in [0, min(n, 2^31)).  An empty class has shape
    (0, r_i)."""

    n: int
    classes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need an integer vertex count n >= 2, got {self.n!r}")
        prev_r = 0
        cleaned = []
        for i, edges in enumerate(self.classes):
            edges = np.asarray(edges)
            if edges.ndim != 2:
                raise ValueError(f"class {i}: edge array shape {edges.shape} is not (m, r)")
            r = edges.shape[1]
            if r < 2 or r > self.n:
                raise ValueError(f"class {i}: size {r} outside 2..{self.n}")
            if r < prev_r:
                raise ValueError("class sizes must be non-decreasing")
            prev_r = r
            if not np.issubdtype(edges.dtype, np.integer):
                raise ValueError(f"class {i}: edge indices must be integers")
            # range check before the int32 cast, which would wrap ids of 2^31
            # and up even when n is larger
            limit = min(self.n, 2**31)
            if edges.shape[0] and (edges.min() < 0 or edges.max() >= limit):
                raise ValueError(f"class {i}: vertex index outside 0..{limit - 1}")
            edges = np.ascontiguousarray(edges, dtype=np.int32)
            if edges.shape[0]:
                # one column pair at a time: no (m, r - 1) difference array
                for j in range(r - 1):
                    if not (edges[:, j + 1] > edges[:, j]).all():
                        raise ValueError(f"class {i}: edge rows must be strictly ascending")
                # sort, not np.unique: unique's hash-table path is ~80x slower here
                keys = _row_keys(edges, self.n)
                keys.sort()
                if (keys[1:] == keys[:-1]).any():
                    raise ValueError(f"class {i}: duplicate edges")
            edges.setflags(write=False)
            cleaned.append(edges)
        object.__setattr__(self, "classes", tuple(cleaned))

    @property
    def edge_counts(self) -> tuple[int, ...]:
        return tuple(edges.shape[0] for edges in self.classes)


# Populations below this are walked rank by rank; rank sums then stay in int64.
_RANK_LIMIT = 2**62
_INT64_MAX = 2**63 - 1
# gap draws per chunk of the rank walk; bounds the walk's scratch memory
_MAX_CHUNK = 2**20
# unranking-table cells that any single draw may use (see _draw_classes)
_TABLE_CELLS = 2**20


def _binomial_table(n: int, r: int) -> np.ndarray:
    """Row j holds C(c, j) for c = 0..n-1, capped at INT64_MAX."""
    table = np.zeros((r + 1, n), dtype=np.int64)
    table[0] = 1
    for j in range(1, r + 1):
        # C(c, j) = sum_{i < c} C(i, j - 1).  A sum first passing INT64_MAX
        # wraps negative (each term is at most INT64_MAX); later ones may not.
        np.cumsum(table[j - 1, :-1], out=table[j, 1:])
        wrapped = np.flatnonzero(table[j] < 0)
        if wrapped.size:
            table[j, wrapped[0] :] = _INT64_MAX
    return table


def _unrank(ranks: np.ndarray, n: int, r: int) -> np.ndarray:
    """The r-subsets of {0..n-1} with the given colex ranks, one per row.

    Colex rank of c_1 < ... < c_r is sum_j C(c_j, j) (combinatorial number
    system); c_j is the largest c with C(c, j) <= the rank left over.
    Distinct ranks give distinct rows, each strictly ascending.
    """
    table = _binomial_table(n, r)
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((rest.size, r), dtype=np.int32)
    for j in range(r, 1, -1):
        col = np.searchsorted(table[j], rest, side="right") - 1
        rest -= table[j][col]
        out[:, j - 1] = col
    # C(c, 1) = c, so the rank left over is c_1 itself
    out[:, 0] = rest
    return out


def _bernoulli_ranks(rng: np.random.Generator, pop: int, p: float) -> np.ndarray:
    """Ascending ranks in [0, pop), each kept independently with probability p.

    Requires pop < 2^62 and 0 < p <= 1.  Walks the ranks with Geometric(p)
    gaps (Batagelj & Brandes, Phys. Rev. E 71, 2005); at p = 1 every gap is 1.
    """
    mean = pop * p
    chunk = int(min(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16.0, _MAX_CHUNK))
    parts = []
    last = -1
    while True:
        pos = rng.geometric(p, size=chunk)
        # numpy saturates at INT64_MAX for tiny p.  A gap of pop + 1 already
        # leaves the range from rank -1, so clipping there keeps the law (at
        # pop, an empty class would be impossible) and keeps every prefix sum
        # up to the first one >= pop exact in int64; later sums may wrap.
        np.minimum(pos, pop + 1, out=pos)
        pos[0] += last
        np.cumsum(pos, out=pos)
        past = np.flatnonzero(pos >= pop)
        if past.size:
            parts.append(pos[: past[0]])
            return np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])


def _poisson_subsets(rng: np.random.Generator, n: int, r: int, p: float) -> np.ndarray:
    """Bernoulli(p) r-subsets of {0..n-1} for populations too large to rank.

    Draws K ~ Poisson(C(n, r) * -log(1 - p)) uniform r-subsets and merges
    repeats.  Each subset's hit count is then an independent
    Poisson(-log(1 - p)), so it is present with probability exactly p.
    """
    lam = math.exp(log_binomial(n, r) + math.log(-math.log1p(-p)))
    count = int(rng.poisson(lam))
    # Floyd's algorithm, one step per column for all rows at once
    rows = np.empty((count, r), dtype=np.int32)
    for i, top in enumerate(range(n - r, n)):
        pick = rng.integers(0, top + 1, size=count, dtype=np.int32)
        taken = (rows[:, :i] == pick[:, None]).any(axis=1)
        rows[:, i] = np.where(taken, top, pick)
    rows.sort(axis=1)
    return np.unique(rows, axis=0)


def check_budget(params: ModelParams, max_edges: int) -> None:
    """Raise BudgetExceededError if the model's expected total edge count
    exceeds max_edges, checked in log space before anything is drawn."""
    if max_edges < 1:
        raise ValueError(f"max_edges must be >= 1, got {max_edges}")
    log_expected = log_expected_edges(params)
    if log_expected > math.log(max_edges):
        raise BudgetExceededError(
            f"expected edge count exp({log_expected:.3f}) exceeds "
            f"budget.max_edges = {max_edges}",
            log_expected,
        )


def _draw_classes(
    rng: np.random.Generator, params: ModelParams, trials: int
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per class, the rows of ``trials`` independent draws and each row's
    trial (None when trials = 1).

    A Bernoulli(p) walk over the ranks [0, trials * C(n, r)) is exactly
    ``trials`` independent draws of the class: rank rho belongs to trial
    rho // C(n, r) and is the subset of colex rank rho % C(n, r).  Rows come
    out grouped by trial, each group in ascending rank order.

    A single draw (trials = 1) with p < 1 merges Poisson subsets instead
    when C(n, r) reaches 2^62, or when the walk's (r + 1) x n unranking
    table would exceed both _TABLE_CELLS and the draw's expected
    r * C(n, r) * p vertex ids: the table then never outgrows the draw.
    """
    n = params.n
    if n > 2**31:
        raise ValueError(f"n = {n} exceeds 2^31: vertex ids are int32")
    parts = []
    for r, p in params.classes:
        trial = np.empty(0, dtype=np.int64)
        if p == 0.0:
            edges = np.empty((0, r), dtype=np.int32)
        elif trials * (pop := math.comb(n, r)) < _RANK_LIMIT and (
            trials > 1 or p == 1.0 or (r + 1) * n <= max(_TABLE_CELLS, pop * p * r)
        ):
            ranks = _bernoulli_ranks(rng, trials * pop, p)
            if trials > 1:
                trial, ranks = np.divmod(ranks, pop)
            edges = _unrank(ranks, n, r)
        elif trials == 1:
            edges = _poisson_subsets(rng, n, r, p)
        else:
            raise ValueError(f"{trials} trials of C({n}, {r}) subsets exceed 2^62 ranks")
        parts.append((edges, trial if trials > 1 else None))
    return parts


def sample_hypergraph(
    params: ModelParams,
    seed: int,
    max_edges: int = MAX_EDGES,
) -> Hypergraph:
    """Draw one hypergraph from the model.

    Each r_i-subset is an edge independently with probability p_i, exactly.
    Refuses models whose expected total edge count exceeds max_edges,
    checked in log space before anything is drawn.  Identical
    (params, seed, max_edges) give a bit-identical result.
    """
    check_budget(params, max_edges)
    rng = np.random.default_rng(seed)
    parts = _draw_classes(rng, params, 1)
    return Hypergraph(n=params.n, classes=tuple(edges for edges, _ in parts))


# float64 bytes of one batch's (trials, n, n) stack in sample_adjacency_batches
_TRIAL_BATCH_BYTES = 2**18


def sample_adjacency_batches(
    params: ModelParams,
    seed: int,
    trials: int,
    max_edges: int = MAX_EDGES,
):
    """Pair-count matrices of ``trials`` independent draws from the model,
    yielded as (t, n, n) int64 stacks, batch by batch.

    All batches come from one stream seeded by ``seed``; a batch holds as
    many trials as fit ``_TRIAL_BATCH_BYTES`` as float64, at least one.  A
    one-trial batch consumes the stream exactly as ``sample_hypergraph``
    does, its Poisson path included.  A batch of t > 1 trials draws each
    class from one rank walk, so it needs t * C(n, r_i) < 2^62 and raises
    ValueError when drawn otherwise.  The budget refusal is that of
    ``sample_hypergraph``, per trial, and comes at the call, before any
    batch is drawn.
    """
    check_budget(params, max_edges)
    rng = np.random.default_rng(seed)
    n = params.n
    batch = max(_TRIAL_BATCH_BYTES // (8 * n * n), 1)
    sizes = (min(batch, left) for left in range(trials, 0, -batch))
    return (_pair_counts(_draw_classes(rng, params, size), n, size) for size in sizes)


# pair keys per bincount block, raised to the output size for large n: bounds
# the key scratch by the result and keeps each block's bincount amortized
_ADJACENCY_BLOCK_KEYS = 2**20


def _pair_counts(
    parts: list[tuple[np.ndarray, np.ndarray | None]], n: int, trials: int = 1
) -> np.ndarray:
    """(trials, n, n) symmetric pair-count matrices with zero diagonals.

    ``parts`` holds edge rows and each row's trial (None: all in trial 0).
    Entry (t, u, v) counts trial t's rows containing both u and v, from one
    bincount over the keys t n^2 + u n + v, u < v.  Keys are built in blocks
    of rows, so scratch memory does not grow with the edge count.
    """
    counts = np.zeros(trials * n * n, dtype=np.int64)
    for edges, trial in parts:
        iu, iv = np.triu_indices(edges.shape[1], 1)
        rows = max(max(_ADJACENCY_BLOCK_KEYS, counts.size) // iu.size, 1)
        for start in range(0, edges.shape[0], rows):
            block = edges[start : start + rows]
            keys = block[:, iu].astype(np.int64)
            keys *= n
            keys += block[:, iv]
            if trial is not None:
                keys += trial[start : start + rows, None] * (n * n)
            counts += np.bincount(keys.ravel(), minlength=counts.size)
    upper = counts.reshape(trials, n, n)
    return upper + upper.transpose(0, 2, 1)


def adjacency(h: Hypergraph) -> np.ndarray:
    """Dense symmetric pair-count matrix with zero diagonal, int64.

    Entry (u, v) counts the hyperedges containing both u and v, summed over
    classes.  Cost is O(sum_i m_i r_i^2) plus one dense n x n buffer.
    """
    return _pair_counts([(edges, None) for edges in h.classes], h.n)[0]


def center_scale(A: np.ndarray, params: ModelParams) -> np.ndarray:
    """Centered, scaled matrix H = (A - mu) / sqrt(n sigma^2) off-diagonal,
    zero on the diagonal; A is one n x n matrix or a (..., n, n) stack."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"need a square matrix or a stack of them, got shape {A.shape}")
    n = A.shape[-1]
    if n != params.n:
        raise ValueError(f"matrix is {n} x {n} but params.n = {params.n}")
    stats = derive_stats(params)
    scale_sq = params.n * stats.sigma_sq
    if not math.isfinite(scale_sq) or scale_sq <= 0.0:
        raise ValueError(f"scale sqrt(n sigma^2) not representable: n sigma^2 = {scale_sq}")
    H = (A.astype(np.float64) - stats.mu) / math.sqrt(scale_sq)
    diag = np.arange(n)
    H[..., diag, diag] = 0.0
    return H


# ---------------------------------------------------------------------------
# text interchange format
#
# line 1: "n k"; then per class a header "r_i m_i" followed by m_i lines of
# r_i strictly ascending 1-based vertex indices.  UTF-8, LF line endings.


# edge rows formatted per block; bounds the writer's scratch memory
_WRITE_BLOCK_ROWS = 65_536


def _format_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """The text lines of 0-based edge rows, as a uint8 array: each value + 1 in
    decimal, then a space, or a newline after a row's last value.

    The digits of each value go right-aligned into ``width`` cells followed
    by a separator cell.  Cells left of a value's leading digit hold 0, and
    a row-major mask drops them."""
    rest = rows.astype(np.uint32)
    rest += 1
    cells = np.empty(rest.shape + (width + 1,), dtype=np.uint8)
    cells[..., width] = ord(" ")
    cells[:, -1, width] = ord("\n")
    for j in range(width - 1, -1, -1):
        quot = rest // 10
        # the digit's ASCII code; 0 once nothing is left (values are >= 1)
        cells[..., j] = (rest - 10 * quot + ord("0")) * (rest > 0)
        rest = quot
    flat = cells.ravel()
    return flat.compress(flat != 0)


def write_hypergraph_text(h: Hypergraph, path) -> None:
    # every written value is at most n
    width = len(str(h.n))
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (h.n, len(h.classes)))
        for edges in h.classes:
            m, r = edges.shape
            fh.write(b"%d %d\n" % (r, m))
            for start in range(0, m, _WRITE_BLOCK_ROWS):
                fh.write(_format_rows(edges[start : start + _WRITE_BLOCK_ROWS], width))


# bytes per split block; one block's tokens are the only per-token Python
# objects the reader holds at a time
_PARSE_BLOCK = 2**16
# the separators of bytes.split()
_SEPARATORS = b" \t\n\v\f\r"
_WHITESPACE = re.compile(b"[" + re.escape(_SEPARATORS) + b"]")
# bytes.translate table of the reader's gate: b" " separator, b"d" digit,
# b"s" sign, b"x" any other byte
_BYTE_CLASS = bytes(
    ord(" ") if byte in _SEPARATORS
    else ord("d") if byte in b"0123456789"
    else ord("s") if byte in b"+-"
    else ord("x")
    for byte in range(256)
)
_INT64_MIN = -(2**63)
# a token of README's grammar: its sign, and its digits without leading zeros
# (one "0" for zero); started on a zero, the group matches only that zero, so
# each step back through a long zero run costs O(1)
_TOKEN = re.compile(rb"([+-]?)0*([1-9][0-9]{0,18}|0)")


def _blocks(data: bytes):
    """``data`` in pieces of at least ``_PARSE_BLOCK`` bytes that each end at
    a separator or at the end, so no token straddles two pieces."""
    start = 0
    while start < len(data):
        cut = _WHITESPACE.search(data, start + _PARSE_BLOCK)
        stop = cut.start() if cut else len(data)
        yield data[start:stop]
        start = stop


def _scan(block: bytes) -> tuple[int, bool]:
    """The number of tokens in ``block``, and whether numpy's parser may
    convert it: the gate admits only ASCII whitespace, digits and signs,
    with every sign opening a token and followed by a digit."""
    # a block starts at a separator or at the start of the file
    cls = (b" " + block).translate(_BYTE_CLASS)
    if b"x" in cls or (b"s" in cls and cls.count(b"s") != cls.count(b" sd")):
        return len(block.split()), False
    # a token starts exactly where the class code rises, from b" " to b"d"
    # or b"s"; within a gated token it never rises, as b"s" > b"d" and a
    # sign is followed only by digits
    codes = np.frombuffer(cls, dtype=np.uint8)
    return int(np.count_nonzero(codes[1:] > codes[:-1])), True


def _c_int64(block: bytes, tokens: int) -> np.ndarray | None:
    """A gated block's ``tokens`` tokens as int64 from numpy's C parser, or
    None where its result cannot stand: not one value per token, or a value
    at an int64 limit, where the parser saturates."""
    try:
        got = np.fromstring(block, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if got.size != tokens or ((got == _INT64_MIN) | (got == _INT64_MAX)).any():
        return None
    return got


def _leading_int64(tokens: list[bytes]) -> np.ndarray:
    """The tokens before the first bad one, as int64.  A token is good if and
    only if it matches [+-]?[0-9]+ and fits in int64; int() only converts
    the at most 19 digits left after the sign and leading zeros."""
    values = []
    for token in tokens:
        match = _TOKEN.fullmatch(token)
        if match is None:
            break
        value = -int(match[2]) if match[1] == b"-" else int(match[2])
        if not _INT64_MIN <= value <= _INT64_MAX:
            break
        values.append(value)
    return np.array(values, dtype=np.int64)


def _split_blocks(data: bytes) -> tuple[np.ndarray, int]:
    """The tokens of ``data`` as int64 up to the first bad token, and the
    number of tokens.  ``data`` is converted block by block, so at most one
    block's tokens exist as Python objects at a time.  A first pass counts
    and gates each block, so that the values are one allocation: per-block
    parts and their concatenation doubled the values and made the peak RSS
    depend on heap layout.  Gated blocks go through numpy's C parser; every
    other block, and every gated one whose result cannot stand, goes through
    ``_leading_int64``, which alone decides a bad token."""
    scans = [_scan(block) for block in _blocks(data)]
    total = sum(tokens for tokens, _ in scans)
    values = np.empty(total, dtype=np.int64)
    at = 0
    # a numpy that warns on unmatched data, where 2.x raises, returns a short
    # array that the count check refuses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        for block, (tokens, gated) in zip(_blocks(data), scans):
            got = _c_int64(block, tokens) if gated else None
            if got is None:
                got = _leading_int64(block.split())
            values[at : at + got.size] = got
            at += got.size
            if got.size < tokens:
                return values[:at], total
    return values, total


def read_hypergraph_text(path) -> Hypergraph:
    with open(path, "rb") as fh:
        values, total = _split_blocks(fh.read())
    pos = 0

    def take(count: int, what: str) -> np.ndarray:
        nonlocal pos
        if count > total - pos:
            raise ValueError(f"truncated hypergraph file: expected {what}")
        chunk = values[pos : pos + count]
        pos += count
        if chunk.size < count:
            raise ValueError(f"bad integer in hypergraph file near {what}")
        return chunk

    n, k = (int(v) for v in take(2, "header 'n k'"))
    if k < 0:
        raise ValueError(f"negative class count {k}")
    classes = []
    for i in range(k):
        r, m = (int(v) for v in take(2, f"class {i} header 'r m'"))
        if r < 2:
            raise ValueError(f"class {i}: size {r} below 2")
        if m < 0:
            raise ValueError(f"class {i}: negative edge count")
        edges = take(r * m, f"class {i} edges").reshape(m, r)
        edges -= 1
        classes.append(edges)
    if pos != total:
        raise ValueError("trailing data after the last declared edge")
    return Hypergraph(n=n, classes=tuple(classes))
