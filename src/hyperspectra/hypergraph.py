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
import sys
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
    "sample_adjacency_stack",
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
# ranks or edge rows per piece; bounds the scratch of the sampler, adjacency
# and the writer.  A rank walk capped at this size stops in the piece that
# leaves its range, so the size decides the stream after a capped class.
_PIECE = 2**16
# unranking-table cells that any draw may use (see _draw_classes)
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


def _unrank(ranks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The r-subsets with the given colex ranks, one per row, through the
    ``_binomial_table(n, r)`` of their ground set {0..n-1}.

    Colex rank of c_1 < ... < c_r is sum_j C(c_j, j) (combinatorial number
    system); c_j is the largest c with C(c, j) <= the rank left over.
    Distinct ranks give distinct rows, each strictly ascending.
    """
    rest = np.array(ranks, dtype=np.int64)
    out = np.empty((rest.size, table.shape[0] - 1), dtype=np.int32)
    for j in range(out.shape[1], 1, -1):
        col = np.searchsorted(table[j], rest, side="right") - 1
        rest -= table[j][col]
        out[:, j - 1] = col
    # C(c, 1) = c, so the rank left over is c_1 itself
    out[:, 0] = rest
    return out


def _bernoulli_ranks(rng: np.random.Generator, pop: int, p: float):
    """Ascending ranks in [0, pop), each kept independently with probability
    p, yielded in pieces of at most ``_PIECE`` ranks.

    Requires pop < 2^62 and 0 < p <= 1.  Walks the ranks with Geometric(p)
    gaps (Batagelj & Brandes, Phys. Rev. E 71, 2005); at p = 1 every gap is 1.
    Each piece draws min(mean + 6 sd + 16, ``_PIECE``) gaps, its size set by
    pop and p; the walk ends in the piece that leaves the range, and the
    gaps drawn past the cut are dropped.
    """
    mean = pop * p
    size = int(min(mean + 6.0 * math.sqrt(mean * (1.0 - p)) + 16.0, _PIECE))
    last = -1
    while True:
        pos = rng.geometric(p, size=size)
        # numpy saturates at INT64_MAX for tiny p.  A gap of pop + 1 already
        # leaves the range from rank -1, so clipping there keeps the law (at
        # pop, an empty class would be impossible) and keeps every prefix
        # sum up to the first one >= pop exact in int64; later ones may wrap.
        np.minimum(pos, pop + 1, out=pos)
        pos[0] += last
        np.cumsum(pos, out=pos)
        past = np.flatnonzero(pos >= pop)
        if past.size:
            yield pos[: past[0]]
            return
        yield pos
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


def _draw_classes(rng: np.random.Generator, params: ModelParams, trials: int):
    """The rows of ``trials`` independent draws of each class, as (class
    index, rows, trial) pieces; ``trial`` is an array or one int for all rows.

    A Bernoulli(p) walk over the ranks [0, trials * C(n, r)) is exactly
    ``trials`` independent draws of the class: rank rho belongs to trial
    rho // C(n, r) and is the subset of colex rank rho % C(n, r).  Rows come
    by trial, each trial's in ascending rank order, ``_PIECE`` at most.

    A class with p < 1 takes one Poisson draw per trial instead, in trial
    order, when trials * C(n, r) reaches 2^62, or when the walk's (r + 1) x n
    unranking table would exceed both _TABLE_CELLS and the expected
    r * trials * C(n, r) * p vertex ids of all its trials: the table then
    never outgrows the draw.  A Poisson draw is one piece.
    """
    n = params.n
    for i, (r, p) in enumerate(params.classes):
        if p == 0.0:
            continue
        if trials * (pop := math.comb(n, r)) < _RANK_LIMIT and (
            p == 1.0 or (r + 1) * n <= max(_TABLE_CELLS, trials * pop * p * r)
        ):
            table = _binomial_table(n, r)
            for ranks in _bernoulli_ranks(rng, trials * pop, p):
                trial, ranks = np.divmod(ranks, pop) if trials > 1 else (0, ranks)
                yield i, _unrank(ranks, table), trial
        else:
            for t in range(trials):
                yield i, _poisson_subsets(rng, n, r, p), t


def _check_addressable(shape: tuple[int, ...]) -> None:
    """Raise MemoryError when an array of 8-byte entries of ``shape`` needs
    more than sys.maxsize bytes, which numpy cannot address."""
    if (nbytes := 8 * math.prod(shape)) > sys.maxsize:
        raise MemoryError(f"a {shape} array of 8-byte entries needs {nbytes} bytes")


def _generator(params: ModelParams, seed: int, max_edges: int) -> np.random.Generator:
    """A draw's generator, after the refusals that come before anything is drawn."""
    check_budget(params, max_edges)
    if params.n > 2**31:
        raise ValueError(f"n = {params.n} exceeds 2^31: vertex ids are int32")
    return np.random.default_rng(seed)


def _pair_counts(n: int, trials: int, pieces) -> np.ndarray:
    """The symmetric int64 pair counts of ``trials`` edge sets, a (trials, n, n)
    stack with zero diagonal.  Each (rows, trial) piece adds its rows' pairs
    u < v at flat key trial n^2 + u n + v (``trial``: one int or each row's),
    one column pair of keys at a time; the transpose is added last."""
    _check_addressable((trials, n, n))
    counts = np.zeros((trials, n, n), dtype=np.int64)
    for rows, trial in pieces:
        for a, b in zip(*np.triu_indices(rows.shape[1], 1)):
            keys = rows[:, a].astype(np.int64)
            keys *= n
            keys += rows[:, b]
            keys += trial * (n * n)
            np.add.at(counts.reshape(-1), keys, 1)
    return counts + counts.transpose(0, 2, 1)


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
    rng = _generator(params, seed, max_edges)
    classes = [np.empty((0, r), dtype=np.int32) for r in params.r]
    for i, rows, _ in _draw_classes(rng, params, 1):
        # grown in place piece by piece: no second copy of a class's rows
        m = classes[i].shape[0]
        classes[i].resize((m + rows.shape[0], rows.shape[1]), refcheck=False)
        classes[i][m:] = rows
    return Hypergraph(n=params.n, classes=tuple(classes))


def sample_adjacency_stack(
    params: ModelParams,
    seed: int,
    trials: int = 1,
    max_edges: int = MAX_EDGES,
) -> np.ndarray:
    """Pair-count matrices of ``trials`` independent draws from the model, as
    one (trials, n, n) int64 stack drawn from ``default_rng(seed)``.

    One trial consumes the stream exactly as ``sample_hypergraph`` does, its
    Poisson path included.  The budget refusal is that of
    ``sample_hypergraph``, per trial; it and the MemoryError of a stack past
    sys.maxsize bytes come before anything is drawn.  Scratch beyond the
    counts and the result is one piece.
    """
    rng = _generator(params, seed, max_edges)
    pieces = ((rows, trial) for _, rows, trial in _draw_classes(rng, params, trials))
    return _pair_counts(params.n, trials, pieces)


def adjacency(h: Hypergraph) -> np.ndarray:
    """Dense symmetric pair-count matrix with zero diagonal, int64.

    Entry (u, v) counts the hyperedges containing both u and v, summed over
    classes.  Cost is O(sum_i m_i r_i^2) plus two dense n x n buffers and
    the pair keys of ``_PIECE`` rows.
    """
    pieces = ((e[at : at + _PIECE], 0) for e in h.classes for at in range(0, len(e), _PIECE))
    return _pair_counts(h.n, 1, pieces)[0]


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
    """Write ``h`` to ``path`` in the text format; the grammar is README's
    File formats.

    Each edge line is byte-identical to ``" ".join(map(str, row + 1))``.
    ``h`` is valid by construction, so only opening or writing the file can
    fail (OSError).  Scratch beyond the open file is the text of ``_PIECE``
    rows."""
    # every written value is at most n
    width = len(str(h.n))
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (h.n, len(h.classes)))
        for edges in h.classes:
            m, r = edges.shape
            fh.write(b"%d %d\n" % (r, m))
            for start in range(0, m, _PIECE):
                fh.write(_format_rows(edges[start : start + _PIECE], width))


# bytes per split block; one block's tokens are the only per-token Python
# objects, and its values the only int64 ones, that the reader holds at a time
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


def _vertex_ids(values: np.ndarray, out: np.ndarray) -> None:
    """Store int64 tokens in the int32 ``out`` as 0-based vertex ids: v - 1
    where 1 <= v <= 2^31, else -1, so no id wraps and ``Hypergraph``'s range
    check refuses every token that is not a vertex id."""
    if values.min() >= 1 and values.max() <= 2**31:
        out[...] = values
        out -= 1
    else:
        out[...] = np.where((values >= 1) & (values <= 2**31), values - 1, -1)


class _Tokens:
    """The tokens of a file's bytes, taken in order and converted block by
    block: at most one block's values exist as int64, and at most one
    block's tokens as Python objects.

    A first pass counts and gates each block, so that a take past the last
    token is refused before anything it sizes is allocated.  Gated blocks go
    through numpy's C parser; every other block, and every gated one whose
    result cannot stand, goes through ``_leading_int64``, which alone
    decides a bad token."""

    def __init__(self, data: bytes):
        scans = [_scan(block) for block in _blocks(data)]
        self.total = sum(tokens for tokens, _ in scans)
        self.pos = 0
        self._blocks = zip(_blocks(data), scans)
        # the current block's values up to its first bad token, its token
        # count, and the index of its next token
        self._values = np.empty(0, dtype=np.int64)
        self._tokens = self._at = 0

    def _next_block(self) -> None:
        block, (tokens, gated) = next(self._blocks)
        # a numpy that warns on unmatched data, where 2.x raises, returns a
        # short array that the count check refuses
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            got = _c_int64(block, tokens) if gated else None
        self._values = _leading_int64(block.split()) if got is None else got
        self._tokens, self._at = tokens, 0

    def take(self, count: int, what: str, ids: bool = False) -> np.ndarray:
        """The next ``count`` tokens as int64, or with ``ids`` as int32
        vertex ids by ``_vertex_ids``."""
        if count > self.total - self.pos:
            raise ValueError(f"truncated hypergraph file: expected {what}")
        self.pos += count
        out = np.empty(count, dtype=np.int32 if ids else np.int64)
        done = 0
        while done < count:
            # a block may hold no token at all
            while self._at == self._tokens:
                self._next_block()
            got = self._values[self._at : self._at + count - done]
            if not got.size:
                raise ValueError(f"bad integer in hypergraph file near {what}")
            if ids:
                _vertex_ids(got, out[done : done + got.size])
            else:
                out[done : done + got.size] = got
            self._at += got.size
            done += got.size
        return out


def read_hypergraph_text(path) -> Hypergraph:
    """The hypergraph in the text file at ``path``; the grammar is README's
    File formats.

    Raises ValueError for a token outside the grammar or beyond int64
    ("bad integer ..."), a file that ends before its headers say
    ("truncated ..."), tokens after the last declared edge, a negative class
    or edge count, a class size below 2, and everything ``Hypergraph``
    refuses: n < 2, a size above n or below the one before, a vertex id
    outside 1..min(n, 2^31), rows not strictly ascending, repeated rows;
    numpy refuses the (0, r) shape of an empty class with r >= 2^60.
    The first refusal in file order wins; ``Hypergraph``'s come after the
    whole file is read.  Memory is about the file's bytes plus 4 bytes per
    edge token: edge tokens go straight into each class's int32 array, and
    the bytes are released before ``Hypergraph`` builds its dedup keys.
    """
    with open(path, "rb") as fh:
        tokens = _Tokens(fh.read())
    n, k = tokens.take(2, "header 'n k'").tolist()
    if k < 0:
        raise ValueError(f"negative class count {k}")
    classes = []
    for i in range(k):
        r, m = tokens.take(2, f"class {i} header 'r m'").tolist()
        if r < 2:
            raise ValueError(f"class {i}: size {r} below 2")
        if m < 0:
            raise ValueError(f"class {i}: negative edge count")
        edges = tokens.take(r * m, f"class {i} edges", ids=True)
        # an empty class keeps its int64 (0, r) shape, which numpy refuses
        # for r >= 2^60 ("array is too big"); Hypergraph casts it to int32
        classes.append(edges.reshape(m, r) if m else np.empty((0, r), dtype=np.int64))
    if tokens.pos != tokens.total:
        raise ValueError("trailing data after the last declared edge")
    # the file's bytes go before Hypergraph builds its dedup keys
    del tokens
    return Hypergraph(n=n, classes=tuple(classes))
