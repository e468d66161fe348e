"""Sampler law checks, adjacency construction, and the text interchange format."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from hyperspectra import (
    BudgetExceededError,
    Hypergraph,
    ModelParams,
    adjacency,
    center_scale,
    derive_stats,
    read_hypergraph_text,
    sample_hypergraph,
    write_hypergraph_text,
)
import hyperspectra.hypergraph as hypergraph_module
from hyperspectra.cli import _trace_moments
from hyperspectra.hypergraph import (
    _bernoulli_ranks,
    _binomial_table,
    _draw_classes,
    _pair_counts,
    _unrank,
    sample_adjacency_batches,
)


def hypergraph_of(n, *classes):
    return Hypergraph(
        n=n,
        classes=tuple(np.asarray(rows, dtype=np.int64).reshape(-1, r) for r, rows in classes),
    )


# ---------------------------------------------------------------------------
# construction validation


def test_hypergraph_rejects_bad_rows():
    with pytest.raises(ValueError):
        hypergraph_of(4, (2, [[1, 0]]))  # not ascending
    with pytest.raises(ValueError):
        hypergraph_of(4, (2, [[0, 0]]))  # repeated vertex
    with pytest.raises(ValueError):
        hypergraph_of(4, (2, [[0, 4]]))  # out of range
    with pytest.raises(ValueError):
        hypergraph_of(4, (2, [[0, 1], [0, 1]]))  # duplicate edge
    with pytest.raises(ValueError):
        hypergraph_of(4, (2, [[0, 1], [1, 2], [0, 1]]))  # non-adjacent duplicate
    wide = list(range(0, 100, 10))  # r log2 n > 62: structured row keys
    with pytest.raises(ValueError):
        hypergraph_of(100, (10, [wide, wide]))
    assert hypergraph_of(100, (10, [wide, [v + 1 for v in wide]])).edge_counts == (2,)
    with pytest.raises(ValueError):
        hypergraph_of(4, (3, [[0, 1, 2]]), (2, [[0, 1]]))  # class order
    with pytest.raises(ValueError):
        Hypergraph(n=4, classes=(np.array([0, 1]),))  # not an (m, r) array
    with pytest.raises(ValueError):
        # below n, but would wrap to vertex 1 in int32
        Hypergraph(n=2**40, classes=(np.array([[0, 2**32 + 1]]),))


def test_hypergraph_rejects_bad_class_arrays():
    for r in (1, 5):
        with pytest.raises(ValueError) as exc:
            Hypergraph(n=4, classes=(np.zeros((0, r), dtype=np.int32),))
        assert str(exc.value) == f"class 0: size {r} outside 2..4"
    with pytest.raises(ValueError) as exc:
        Hypergraph(n=4, classes=(np.array([[0.0, 1.0]]),))
    assert str(exc.value) == "class 0: edge indices must be integers"


def test_hypergraph_validation_memory_bound():
    # the reader hands over int64 rows; checking them must cost less than
    # they do (a (m, r - 1) difference array and key temporaries cost 1.0x)
    h = sample_hypergraph(ModelParams.of(300, [4], [6e-4]), seed=4)
    edges = h.classes[0].astype(np.int64)
    assert edges.shape[0] > 150_000
    peak = traced_peak_mib(Hypergraph, 300, (edges,))
    assert peak <= 0.85 * edges.nbytes / 2**20, peak


# ---------------------------------------------------------------------------
# sampling laws


def test_sample_complete_and_empty_classes():
    h = sample_hypergraph(ModelParams.of(5, [2], [1.0]), seed=0)
    assert h.edge_counts == (10,)
    # every pair exactly once
    A = adjacency(h)
    assert (A[~np.eye(5, dtype=bool)] == 1).all()

    h = sample_hypergraph(ModelParams.of(6, [2, 3], [0.0, 0.5]), seed=1)
    assert h.edge_counts[0] == 0


def test_sample_mean_count():
    # K ~ Binomial(C(100,3), 0.001), mean 161.7
    pop = math.comb(100, 3)
    counts = [
        sample_hypergraph(ModelParams.of(100, [3], [0.001]), seed=s).edge_counts[0]
        for s in range(200)
    ]
    mean = np.mean(counts)
    se = math.sqrt(pop * 0.001 * 0.999 / 200)
    assert abs(mean - pop * 0.001) <= 3 * se


def test_sample_determinism_and_seed_sensitivity():
    params = ModelParams.of(40, [2, 3], [0.2, 0.01])
    a = sample_hypergraph(params, seed=123)
    b = sample_hypergraph(params, seed=123)
    c = sample_hypergraph(params, seed=124)
    for x, y in zip(a.classes, b.classes):
        assert np.array_equal(x, y)
    assert any(
        x.shape != y.shape or not np.array_equal(x, y) for x, y in zip(a.classes, c.classes)
    )


def test_sample_keeps_nothing_after_return():
    # a memo of the rank walk's binomial table would keep (r + 1) n int64,
    # 30.5 MiB; no other test draws this (n, r), so none could fill it first
    tracemalloc.start()
    try:
        h = sample_hypergraph(ModelParams.of(1_000_003, [3], [1e-12]), seed=0)
        assert h.edge_counts[0] > 150_000
        del h
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert kept < 4.0, kept


def test_sample_rows_canonical():
    h = sample_hypergraph(ModelParams.of(25, [4], [0.05]), seed=9)
    rows = h.classes[0]
    assert (np.diff(rows, axis=1) > 0).all()
    assert rows.min() >= 0 and rows.max() < 25


def test_entry_law_chi_square():
    # A_12 ~ Binomial(C(28,1), 0.2) across seeds
    params = ModelParams.of(30, [3], [0.2])
    vals = np.empty(10_000, dtype=np.int64)
    for s in range(vals.size):
        vals[s] = adjacency(sample_hypergraph(params, seed=s))[0, 1]
    m = 28
    observed = np.bincount(vals, minlength=m + 1)
    expected = vals.size * sps.binom.pmf(np.arange(m + 1), m, 0.2)
    # merge the sparse tail so every cell has expected mass >= 5
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    stat, pvalue = sps.chisquare(obs, exp)
    assert pvalue > 0.001


def test_entry_covariance_monte_carlo():
    # Cov(A_12, A_13) = C(n-3, r-3) sigma_1^2, Cov(A_12, A_34) = C(n-4, r-4) sigma_1^2
    n, r, p, trials = 12, 4, 0.3, 10_000
    params = ModelParams.of(n, [r], [p])
    s2 = p * (1 - p)
    want_shared = math.comb(n - 3, r - 3) * s2
    want_disjoint = math.comb(n - 4, r - 4) * s2
    a12 = np.empty(trials)
    a13 = np.empty(trials)
    a34 = np.empty(trials)
    for s in range(trials):
        A = adjacency(sample_hypergraph(params, seed=s))
        a12[s], a13[s], a34[s] = A[0, 1], A[0, 2], A[2, 3]
    for x, y, want in [(a12, a13, want_shared), (a12, a34, want_disjoint)]:
        prod = x * y
        cov = prod.mean() - x.mean() * y.mean()
        se = prod.std(ddof=1) / math.sqrt(trials)
        assert abs(cov - want) <= 4 * se


def test_unrank_matches_combinations():
    for n, r in [(7, 3), (9, 4), (10, 2), (12, 5), (6, 6)]:
        got = _unrank(np.arange(math.comb(n, r)), n, r)
        colex = sorted(itertools.combinations(range(n), r), key=lambda c: c[::-1])
        assert np.array_equal(got, np.array(colex)), (n, r)


def test_binomial_table_matches_comb():
    # capped at INT64_MAX; C(69, 34) > INT64_MAX, so (70, 68) has capped entries
    cap = 2**63 - 1
    for n, r in [(5, 3), (1000, 4), (64, 62), (70, 68), (200, 40)]:
        want = [[min(math.comb(c, j), cap) for c in range(n)] for j in range(r + 1)]
        assert _binomial_table(n, r).tolist() == want, (n, r)


def test_bernoulli_ranks_law():
    # each rank kept independently with probability p, so K ~ Binomial(pop, p);
    # (3, 0.05) needs P(K = 0) > 0, which a walk that always lands a rank fails
    trials = 20_000
    for seed, (pop, p) in enumerate([(6, 0.5), (4, 0.5), (10, 0.7), (3, 0.05)]):
        rng = np.random.default_rng(seed)
        hits = np.zeros(pop, dtype=np.int64)
        counts = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            ranks = _bernoulli_ranks(rng, pop, p)
            assert (np.diff(ranks) > 0).all()
            assert ranks.size == 0 or (ranks[0] >= 0 and ranks[-1] < pop)
            hits[ranks] += 1
            counts[t] = ranks.size
        sd = math.sqrt(p * (1 - p) / trials)
        assert (np.abs(hits / trials - p) <= 4 * sd).all(), (pop, p)
        observed = np.bincount(counts, minlength=pop + 1)
        expected = trials * sps.binom.pmf(np.arange(pop + 1), pop, p)
        # fold each sparse end into its neighbour so every cell expects >= 5
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]

        def pooled(x):
            return np.concatenate(([x[: lo + 1].sum()], x[lo + 1 : hi], [x[hi:].sum()]))

        assert sps.chisquare(pooled(observed), pooled(expected)).pvalue > 0.001, (pop, p)
        if expected[0] >= 5:
            assert observed[0] > 0, (pop, p)


class CappedRng:
    """default_rng(seed) that allows ``calls`` geometric draws, so a walk that
    never reaches the end of its range fails instead of running on."""

    def __init__(self, seed, calls):
        self.rng = np.random.default_rng(seed)
        self.calls = calls

    def geometric(self, p, size):
        self.calls -= 1
        assert self.calls >= 0, "walk overran its chunks"
        return self.rng.geometric(p, size=size)


def test_bernoulli_ranks_chunk_continuation(monkeypatch):
    # Small chunks only change how many surplus gaps are drawn past the cut:
    # the K kept ranks plus the gap that leaves the range take exactly
    # ceil((K + 1) / chunk) draws, and the ranks equal the one-chunk walk's.
    cases = [
        (100, 1.0), (1000, 0.3), (5000, 0.01), (50, 0.5),
        (10**6, 1e-4), (7, 1e-300), (2**40, 1e-9),
    ]
    for pop, p in cases:
        for seed in range(5):
            want = _bernoulli_ranks(np.random.default_rng(seed), pop, p)
            for chunk in (1, 2, 7):
                monkeypatch.setattr(hypergraph_module, "_MAX_CHUNK", chunk)
                rng = CappedRng(seed, -(-(want.size + 1) // chunk))
                got = _bernoulli_ranks(rng, pop, p)
                monkeypatch.undo()
                assert rng.calls == 0, (pop, p, seed, chunk)
                np.testing.assert_array_equal(got, want, err_msg=f"{pop, p, seed, chunk}")


def test_sample_joint_law():
    # all 2^10 edge sets of n=4, r=(2,3): each subset independent with its p,
    # across classes too, with p above 1/2 in the second class
    params = ModelParams.of(4, [2, 3], [0.5, 0.6])
    subsets = [c for r in (2, 3) for c in itertools.combinations(range(4), r)]
    bit = {c: 1 << i for i, c in enumerate(subsets)}
    trials = 20_000
    codes = np.empty(trials, dtype=np.int64)
    for s in range(trials):
        h = sample_hypergraph(params, seed=s)
        codes[s] = sum(bit[tuple(e)] for edges in h.classes for e in edges.tolist())
    present = (np.arange(1024)[:, None] >> np.arange(10)) & 1
    probs = np.where(present, [0.5] * 6 + [0.6] * 4, [0.5] * 6 + [0.4] * 4).prod(axis=1)
    observed = np.bincount(codes, minlength=1024)
    assert sps.chisquare(observed, trials * probs).pvalue > 0.001


def test_sample_seeded_stream_pinned():
    # the exact rows of one seeded draw; they change only on a documented stream change
    h = sample_hypergraph(ModelParams.of(6, [2, 3], [0.5, 0.3]), seed=1)
    assert [edges.tolist() for edges in h.classes] == [
        [[0, 2], [0, 4], [1, 4], [2, 5], [3, 5], [4, 5]],
        [[0, 2, 4], [1, 2, 4], [0, 1, 5], [1, 3, 5], [2, 3, 5], [3, 4, 5]],
    ]


def test_sample_poisson_fallback():
    # C(200,15) ~ 1.46e22 >= 2^62: Poisson count of uniform subsets, repeats merged
    params = ModelParams.of(200, [15], [1e-18])
    h = sample_hypergraph(params, seed=3)
    lam = math.comb(200, 15) * -math.log1p(-1e-18)
    assert abs(h.edge_counts[0] - lam) < 6 * math.sqrt(lam)
    rows = h.classes[0]
    assert (np.diff(rows, axis=1) > 0).all()
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_sample_budget_refusal():
    with pytest.raises(BudgetExceededError) as exc:
        sample_hypergraph(
            ModelParams.of(100_000, [5], [0.5]),
            seed=0,
            max_edges=10_000_000,
        )
    assert exc.value.log_expected_edges > math.log(10_000_000)
    with pytest.raises(ValueError):
        sample_hypergraph(ModelParams.of(4, [2], [0.5]), seed=0, max_edges=0)


def test_sample_near_complete_thinning():
    # p near 1: the rank walk takes mostly unit gaps and skips the few absent subsets
    h = sample_hypergraph(ModelParams.of(12, [3], [0.97]), seed=6)
    pop = math.comb(12, 3)
    assert h.edge_counts[0] > 0.9 * pop
    rows = h.classes[0]
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_sampler_admits_n_at_int32_limit(monkeypatch):
    # ids 0..2^31 - 1 fit int32, so n = 2^31 is drawn; its 3 x 2^31 rank
    # table (48 GiB) would dwarf the ~2.3e5 expected edges, so the draw
    # merges Poisson subsets and its memory follows the edge count
    def never(*args, **kwargs):
        raise AssertionError("rank table built")

    monkeypatch.setattr(hypergraph_module, "_binomial_table", never)
    tracemalloc.start()
    try:
        h = sample_hypergraph(ModelParams.of(2**31, [2], [1e-13]), seed=0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    (edges,) = h.classes
    expected = math.comb(2**31, 2) * 1e-13
    assert abs(len(edges) - expected) <= 5 * math.sqrt(expected)
    assert edges.min() >= 0 and edges.max() < 2**31
    assert peak < 32.0, peak


# ---------------------------------------------------------------------------
# batched trials


def test_batched_trials_match_single_trial_path():
    params = ModelParams.of(5, [2, 3], [0.5, 0.3])
    n, trials = params.n, 60
    parts = _draw_classes(np.random.default_rng(8), params, trials)
    stack = _pair_counts(parts, n, trials)
    assert np.array_equal(next(sample_adjacency_batches(params, 8, trials)), stack)
    H = center_scale(stack, params)
    m2, m4 = _trace_moments(H)
    for t in range(trials):
        # the trial's rows must form a valid hypergraph on their own
        h = Hypergraph(n=n, classes=tuple(edges[trial == t] for edges, trial in parts))
        A = adjacency(h)
        assert np.array_equal(stack[t], A)
        Ht = center_scale(A, params)
        assert np.array_equal(H[t], Ht)
        H2 = Ht @ Ht
        assert m2[t] == pytest.approx(np.trace(H2) / n, abs=1e-12)
        assert m4[t] == pytest.approx(np.sum(H2 * H2) / n, abs=1e-12)
    # one trial consumes the stream exactly as sample_hypergraph does
    for seed in range(5):
        (one,) = sample_adjacency_batches(params, seed, 1)
        assert np.array_equal(one[0], adjacency(sample_hypergraph(params, seed)))


def pooled_chisquare_pvalue(observed, expected):
    """Chi-square p-value after folding every cell expecting < 5 into one."""
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    return sps.chisquare(obs, exp).pvalue


def test_batched_trials_law(monkeypatch):
    # n = 5, r = 2: a trial's adjacency is its edge set, one of 2^10
    p, trials, batch = 0.5, 42_000, 7
    params = ModelParams.of(5, [2], [p])
    iu, iv = np.triu_indices(5, 1)
    bits = 1 << np.arange(10)
    present = {}
    for label, batch_bytes in (("default", None), ("small", 8 * 25 * batch)):
        if batch_bytes is not None:
            monkeypatch.setattr(hypergraph_module, "_TRIAL_BATCH_BYTES", batch_bytes)
        stacks = list(sample_adjacency_batches(params, 11, trials))
        if batch_bytes is not None:
            assert {A.shape[0] for A in stacks} == {batch}
        present[label] = np.concatenate([A[:, iu, iv] for A in stacks])
    # each trial's edge set: all 2^10 sets equally likely at p = 1/2
    for label, edges in present.items():
        observed = np.bincount(edges @ bits, minlength=1024)
        assert sps.chisquare(observed).pvalue > 0.001, label
    # edge counts of adjacent trials, inside a batch and across a batch edge,
    # and of the same slot in consecutive batches are independent Binomial(10, p)
    counts = present["small"].sum(axis=1)
    pmf = sps.binom.pmf(np.arange(11), 10, p)
    straddles = np.arange(trials - 1) % batch == batch - 1
    for label, first, second in (
        ("inside", counts[:-1][~straddles], counts[1:][~straddles]),
        ("straddling", counts[:-1][straddles], counts[1:][straddles]),
        ("next batch", counts[:-batch], counts[batch:]),
    ):
        observed = np.bincount(first * 11 + second, minlength=121)
        expected = first.size * np.outer(pmf, pmf).ravel()
        assert pooled_chisquare_pvalue(observed, expected) > 0.001, label


def test_batches_refuse_rank_overflow(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("drew before the refusal")

    monkeypatch.setattr(hypergraph_module, "_bernoulli_ranks", never)
    monkeypatch.setattr(hypergraph_module, "_poisson_subsets", never)
    # n = 100 puts 3 trials in a batch, and C(100, 20) alone exceeds 2^62
    with pytest.raises(ValueError) as exc:
        next(sample_adjacency_batches(ModelParams.of(100, [20], [1e-18]), 0, 3))
    assert str(exc.value) == "3 trials of C(100, 20) subsets exceed 2^62 ranks"


# ---------------------------------------------------------------------------
# adjacency and centering


def test_adjacency_catalog():
    h = hypergraph_of(4, (3, [[0, 1, 2]]))
    A = adjacency(h)
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 1] = want[0, 2] = want[1, 2] = 1
    assert A.dtype == np.int64
    assert np.array_equal(A, want + want.T)

    h = hypergraph_of(3, (2, [[0, 1]]), (3, [[0, 1, 2]]))
    A = adjacency(h)
    assert A[0, 1] == 2 and A[0, 2] == 1 and A[1, 2] == 1
    assert (np.diag(A) == 0).all()

    empty = hypergraph_of(5, (2, np.empty((0, 2), dtype=np.int64)))
    assert not adjacency(empty).any()


def test_adjacency_symmetry_sampled():
    for seed in range(5):
        h = sample_hypergraph(ModelParams.of(35, [2, 4], [0.1, 0.002]), seed=seed)
        A = adjacency(h)
        assert np.array_equal(A, A.T)
        assert (np.diag(A) == 0).all()


def traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_adjacency_blocks_bound_memory(monkeypatch):
    # at fixed n, pair-key scratch must not grow with the edge count
    small = sample_hypergraph(ModelParams.of(100, [3], [0.125]), seed=1)
    large = sample_hypergraph(ModelParams.of(100, [3], [0.5]), seed=1)
    whole = [adjacency(small), adjacency(large)]
    monkeypatch.setattr(hypergraph_module, "_ADJACENCY_BLOCK_KEYS", 1024)
    assert np.array_equal(adjacency(small), whole[0])
    assert np.array_equal(adjacency(large), whole[1])
    assert large.edge_counts[0] > 3.5 * small.edge_counts[0]
    peaks = [traced_peak_mib(adjacency, h) for h in (small, large)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_center_scale_catalog():
    params = ModelParams.of(3, [2], [0.5])
    A = np.ones((3, 3), dtype=np.uint32) - np.eye(3, dtype=np.uint32)
    H = center_scale(A, params)
    off = H[~np.eye(3, dtype=bool)]
    assert off == pytest.approx(np.full(6, (1 - 0.5) / math.sqrt(0.75)), rel=1e-14)
    assert (np.diag(H) == 0.0).all()

    mu = derive_stats(params).mu
    flat = np.full((3, 3), mu)
    np.fill_diagonal(flat, 0.0)
    assert not center_scale(flat, params).any()


def test_center_scale_validation():
    params = ModelParams.of(4, [2], [0.5])
    with pytest.raises(ValueError):
        center_scale(np.zeros((3, 4)), params)
    with pytest.raises(ValueError):
        center_scale(np.zeros((5, 5)), params)


def test_degree_mean_monte_carlo():
    # mean r-degree over vertices and seeds ~ C(99,2) * 0.01 = 48.51
    params = ModelParams.of(100, [3], [0.01])
    per_seed = np.empty(100)
    for s in range(per_seed.size):
        h = sample_hypergraph(params, seed=s)
        per_seed[s] = 3.0 * h.edge_counts[0] / 100.0
    want = math.comb(99, 2) * 0.01
    se = per_seed.std(ddof=1) / math.sqrt(per_seed.size)
    assert abs(per_seed.mean() - want) <= 3 * se


# ---------------------------------------------------------------------------
# text format


def reference_text(h):
    """The text format with one str() per vertex id."""
    lines = [f"{h.n} {len(h.classes)}"]
    for edges in h.classes:
        lines.append(f"{edges.shape[1]} {edges.shape[0]}")
        lines.extend(" ".join(map(str, row + 1)) for row in edges)
    return "".join(line + "\n" for line in lines).encode()


def writer_cases():
    # written ids 10^(d-1) and 10^d - 1 for d = 1..10 digits, capped at the
    # int32 limit n = 2^31 - 1
    top = 2**31 - 1
    digits = [[10 ** (d - 1) - 1, min(10**d - 1, top) - 1] for d in range(1, 11)]
    yield hypergraph_of(5, (2, [[0, 4], [1, 2]]), (3, [[0, 1, 3]]))
    yield hypergraph_of(top, (2, digits), (3, []), (4, [[0, 9, 99, top - 1]]))
    # r = 2 and r = n
    yield hypergraph_of(12, (2, [[0, 11], [3, 4], [9, 10]]), (12, [list(range(12))]))
    yield Hypergraph(n=7, classes=())
    for seed in range(4):
        yield sample_hypergraph(ModelParams.of(20, [2, 3], [0.3, 0.02]), seed=seed)


def test_text_format_bytes(tmp_path, monkeypatch):
    path = tmp_path / "h.txt"
    write_hypergraph_text(next(writer_cases()), path)
    assert path.read_bytes() == b"5 2\n2 2\n1 5\n2 3\n3 1\n1 2 4\n"
    for block in (None, 1, 2, 3):
        if block is not None:
            monkeypatch.setattr(hypergraph_module, "_WRITE_BLOCK_ROWS", block)
        for h in writer_cases():
            write_hypergraph_text(h, path)
            assert path.read_bytes() == reference_text(h), (block, h.n)


def test_text_format_roundtrip(tmp_path):
    path = tmp_path / "h.txt"
    for h in writer_cases():
        write_hypergraph_text(h, path)
        back = read_hypergraph_text(path)
        assert back.n == h.n
        assert len(back.classes) == len(h.classes)
        for x, y in zip(back.classes, h.classes):
            assert x.shape == y.shape
            assert np.array_equal(x, y)


def test_text_writer_bounds_memory(tmp_path, monkeypatch):
    # at a fixed block size, the writer's scratch must not grow with the edge count
    small = sample_hypergraph(ModelParams.of(100, [3], [0.125]), seed=1)
    large = sample_hypergraph(ModelParams.of(100, [3], [0.5]), seed=1)
    assert large.edge_counts[0] > 3.5 * small.edge_counts[0]
    monkeypatch.setattr(hypergraph_module, "_WRITE_BLOCK_ROWS", 1024)
    path = tmp_path / "h.txt"
    peaks = [traced_peak_mib(write_hypergraph_text, h, path) for h in (small, large)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


EDGE_ROW = b"5 1\n2 1\n1 %s\n"
LONG = b"5" * 20
# (file, (n, 0-based edge rows) if accepted, else the exact error message);
# every outcome but the 0_2 one and the three with 4400 leading zeros is the
# same as with bytes.split() and int()
READER_CASES = [
    (EDGE_ROW % b"9", "class 0: vertex index outside 0..4"),
    (b"5 1\n2 2\n1 2\n", "truncated hypergraph file: expected class 0 edges"),
    (b"5 1\n2 1\n1 2\n7\n", "trailing data after the last declared edge"),
    # tokens after a bad one still count
    (b"5 1\n2 3\n1 x\n1 2\n", "truncated hypergraph file: expected class 0 edges"),
    (b"5 1\n2 2\n1 x\n1 2\n", "bad integer in hypergraph file near class 0 edges"),
    (b"5 1\n2 1\n1 2\nx 7\n", "trailing data after the last declared edge"),
    # would wrap to vertex 2 in int32
    (EDGE_ROW % b"4294967298", "class 0: vertex index outside 0..4"),
    (EDGE_ROW % b"+2", (5, [[0, 1]])),
    (b"+5 1\n+2 +1\n+1 +3\n", (5, [[0, 2]])),
    (EDGE_ROW % b"-0", "class 0: vertex index outside 0..4"),
    (b"-0 1\n2 1\n1 2\n", "need an integer vertex count n >= 2, got 0"),
    (EDGE_ROW % b"-", "bad integer in hypergraph file near class 0 edges"),
    (EDGE_ROW % b"+", "bad integer in hypergraph file near class 0 edges"),
    (b"- 1\n2 1\n1 2\n", "bad integer in hypergraph file near header 'n k'"),
    (b"5 1\n2 +\n1 2\n", "bad integer in hypergraph file near class 0 header 'r m'"),
    *(
        (EDGE_ROW % (sign + digits), "bad integer in hypergraph file near class 0 edges")
        for sign in (b"+-", b"--", b"-+")
        for digits in (b"5", LONG)
    ),
    (EDGE_ROW % b"0002", (5, [[0, 1]])),
    (EDGE_ROW % (b"0" * 26 + b"2"), (5, [[0, 1]])),
    (b"5 1\n2 1\n1 -" + b"0" * 30 + b"3\n", "class 0: vertex index outside 0..4"),
    # longer than int()'s 4300-digit limit
    (EDGE_ROW % (b"0" * 4400 + b"2"), (5, [[0, 1]])),
    (EDGE_ROW % (b"0" * 4400 + b"2") + b"\x85\n", "trailing data after the last declared edge"),
    (EDGE_ROW % (b"-" + b"0" * 4400 + b"3"), "class 0: vertex index outside 0..4"),
    (b"9223372036854775807 1\n2 1\n1 2\n", (9223372036854775807, [[0, 1]])),
    # below n, but would wrap to vertex 2 in int32
    (b"10000000000 1\n2 1\n1 4294967299\n", "class 0: vertex index outside 0..2147483647"),
    (EDGE_ROW % b"9223372036854775807", "class 0: vertex index outside 0..4"),
    (EDGE_ROW % b"9223372036854775808", "bad integer in hypergraph file near class 0 edges"),
    (EDGE_ROW % b"-9223372036854775809", "bad integer in hypergraph file near class 0 edges"),
    (
        b"-9223372036854775808 1\n2 1\n1 2\n",
        "need an integer vertex count n >= 2, got -9223372036854775808",
    ),
    (b"5 1\n-9223372036854775808 1\n", "class 0: size -9223372036854775808 below 2"),
    (EDGE_ROW % b"1111111111111111111", "class 0: vertex index outside 0..4"),
    (EDGE_ROW % (b"-" + b"1" * 5000), "bad integer in hypergraph file near class 0 edges"),
    (EDGE_ROW % b"\xd9\xa3", "bad integer in hypergraph file near class 0 edges"),
    (EDGE_ROW % b"\xef\xbc\x95", "bad integer in hypergraph file near class 0 edges"),
    # a digit separator, which int() accepts
    (EDGE_ROW % b"0_2", "bad integer in hypergraph file near class 0 edges"),
    (b"5\t1\x0b2\x0c1\r1\n \t2", (5, [[0, 1]])),
    (b"5 1\n2 1\n1 2", (5, [[0, 1]])),
    (b"\r\n5 1 2 1 1 2 \n\n", (5, [[0, 1]])),
    (b"", "truncated hypergraph file: expected header 'n k'"),
    (b" \n\t", "truncated hypergraph file: expected header 'n k'"),
    (b"5 1\n2 1\n1\x1c2 3\n", "bad integer in hypergraph file near class 0 edges"),
    (b"5 1\n2 1\n1 2\x85\n", "bad integer in hypergraph file near class 0 edges"),
    (b"5 1\n2 1\n1 2\n\x1c\n", "trailing data after the last declared edge"),
    (b"5 1\n2 2\n1 2\n-", "truncated hypergraph file: expected class 0 edges"),
    (b"5 2\n2 1\n1 2\n", "truncated hypergraph file: expected class 1 header 'r m'"),
    (b"5 -1", "negative class count -1"),
    (b"5 -1\n2 1\n1 2\n", "negative class count -1"),
    (b"5 1\n2 2\n1 2\n1", "truncated hypergraph file: expected class 0 edges"),
]


def read_outcome(path):
    try:
        h = read_hypergraph_text(path)
    except ValueError as exc:
        return str(exc)
    return (h.n, *(edges.tolist() for edges in h.classes))


def test_text_format_rejects_garbage(tmp_path):
    path = tmp_path / "case.txt"
    for raw, want in READER_CASES:
        path.write_bytes(raw)
        assert read_outcome(path) == want, raw


def sampled_files(tmp_path):
    files = []
    for seed in range(3):
        h = sample_hypergraph(ModelParams.of(30, [2, 3], [0.2, 0.01]), seed=seed)
        path = tmp_path / "h.txt"
        write_hypergraph_text(h, path)
        files.append(path.read_bytes())
    return files


def test_text_reader_block_edges(tmp_path, monkeypatch):
    # blocks of a few bytes put token boundaries on every possible offset,
    # and the 20- and 5000-digit tokens of READER_CASES outgrow a block
    files = [raw for raw, _ in READER_CASES] + sampled_files(tmp_path)
    path = tmp_path / "case.txt"
    whole = []
    for raw in files:
        path.write_bytes(raw)
        whole.append(read_outcome(path))
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(hypergraph_module, "_PARSE_BLOCK", block)
        for raw, want in zip(files, whole):
            path.write_bytes(raw)
            assert read_outcome(path) == want, (block, raw)


MUTATION_SNIPPETS = [
    b"+", b"-", b"_", b".", b"\xd9\xa3", b"\xef\xbc\x95", b"\x1c", b"\x85",
    b"0" * 30, b"1" * 19, b"9" * 19, b"1" * 20, b"9" * 20,
    b"9223372036854775807", b"9223372036854775808",
    b"-9223372036854775807", b"-9223372036854775808", b"-9223372036854775809",
]


def mutated_files(base, count, seed):
    """``count`` copies of ``base``, each with one to three snippets put in
    at a random byte, at a token's start or as a token of its own (a lone
    sign at a line end among them); repeated signs double up."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = bytearray(base)
        for _ in range(rng.integers(1, 4)):
            snippet = MUTATION_SNIPPETS[rng.integers(len(MUTATION_SNIPPETS))]
            seps = [i for i, c in enumerate(raw) if c in b" \t\n\v\f\r"]
            kind = rng.integers(3)
            if kind == 0:
                at = int(rng.integers(len(raw) + 1))
            elif kind == 1:
                starts = [0] + [i + 1 for i in seps]
                at = starts[rng.integers(len(starts))]
            else:
                at = seps[rng.integers(len(seps))]
                snippet = b" " + snippet
            raw[at:at] = snippet
        yield bytes(raw)


def test_text_reader_matches_int_path(tmp_path, monkeypatch):
    # numpy's parser behind the gate must give the outcome of the per-token
    # converter
    files = [raw for raw, _ in READER_CASES] + sampled_files(tmp_path)
    bases = [files[-1], EDGE_ROW % b"2", b"9223372036854775807 1\n2 2\n1 2\n1 3\n"]
    files += [raw for i, base in enumerate(bases) for raw in mutated_files(base, 150, i)]
    path = tmp_path / "case.txt"
    stands = []
    c_int64 = hypergraph_module._c_int64

    def counted(block, tokens):
        got = c_int64(block, tokens)
        stands.append(got is not None)
        return got

    monkeypatch.setattr(hypergraph_module, "_c_int64", counted)
    with monkeypatch.context() as patch:
        # a table that refuses every byte sends every block to the converter
        patch.setattr(hypergraph_module, "_BYTE_CLASS", b"x" * 256)
        want = []
        for raw in files:
            path.write_bytes(raw)
            want.append(read_outcome(path))
    assert not stands
    for block in (2**16, 3, 7):
        monkeypatch.setattr(hypergraph_module, "_PARSE_BLOCK", block)
        for raw, outcome in zip(files, want):
            path.write_bytes(raw)
            assert read_outcome(path) == outcome, (block, raw)
    # numpy's result stood for most gated blocks
    assert sum(stands) > 0.5 * len(stands), (sum(stands), len(stands))


def test_text_reader_memory_bound(tmp_path):
    # one Python bytes object per token would cost about 15x the file
    h = sample_hypergraph(ModelParams.of(1000, [4], [5e-6]), seed=2)
    path = tmp_path / "h.txt"
    write_hypergraph_text(h, path)
    size_mib = path.stat().st_size / 2**20
    assert size_mib > 2.0
    assert traced_peak_mib(read_hypergraph_text, path) <= 6.0 * size_mib
