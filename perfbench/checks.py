"""Reference computations and output checks for the benchmark.

Everything here is computed from the model with ``math.comb`` and plain
numpy, without calling into hyperspectra, so a fault in the program cannot
hide in its own reference values.  Each ``check_*`` function returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from fractions import Fraction

import numpy as np

# Each tolerance below is fixed before any run and does not depend on today's
# output.  Monte Carlo checks use six standard deviations of an exact variance.
MC_SIGMAS = 6.0
# Kolmogorov distance of the pooled ESD to the predicted semicircle.  The
# finite-n bias at n = 1000..2000 is about 0.01 (acceptance 03/04 use 0.03).
KS_LIMIT = 0.03
# Agreement of a value the program reports with the same value recomputed
# here from its own written outputs (CSV floats carry 17 digits).
REL_TOL = 1e-9


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# closed forms


def _class_variances(n: int, r, p) -> list[Fraction]:
    """Exact C(n-2, r_i-2) p_i(1-p_i) per class; for linear r these overflow a double."""
    return [math.comb(n - 2, ri - 2) * Fraction(pi) * (1 - Fraction(pi)) for ri, pi in zip(r, p)]


def entry_moments(n: int, r, p) -> tuple[Fraction, Fraction]:
    """Exact entry mean mu = sum C(n-2, r-2) p and variance sigma^2 = sum C(n-2, r-2) p(1-p)."""
    mu = sum(math.comb(n - 2, ri - 2) * Fraction(pi) for ri, pi in zip(r, p))
    return mu, sum(_class_variances(n, r, p))


def predicted_variance(n: int, r, p) -> float:
    """sum_i w_i (1 - r_i/n)^2 with w_i proportional to C(n-2, r_i-2) p_i(1-p_i)."""
    b = _class_variances(n, r, p)
    return float(sum(bi * (1 - Fraction(ri, n)) ** 2 for bi, ri in zip(b, r)) / sum(b))


def entry_covariances(n: int, r, p) -> tuple[Fraction, Fraction]:
    """Exact unnormalized Cov(A_12, A_13) and Cov(A_12, A_34): the hyperedges
    containing {1, 2, 3} and {1, 2, 3, 4}."""
    q = [Fraction(pi) * (1 - Fraction(pi)) for pi in p]
    shared = sum(math.comb(n - 3, ri - 3) * qi for ri, qi in zip(r, q) if ri >= 3)
    disjoint = sum(math.comb(n - 4, ri - 4) * qi for ri, qi in zip(r, q) if ri >= 4)
    return Fraction(shared), Fraction(disjoint)


def m2_variance_bernoulli(n: int, r, p) -> float:
    """Exact variance of one trial's m2 = tr(H^2)/n for the hyperedge model.

    With z_e the centered indicator of hyperedge e and q_e = p_e(1-p_e),
    S = sum_{u<v} (A_uv - mu)^2 = sum_e C(r_e,2) z_e^2 + sum_{e != f} C(|e n f|,2) z_e z_f,
    whose terms are uncorrelated, so
    Var S = sum_e C(r_e,2)^2 q_e (1-2p_e)^2 + 2 sum_{e != f} C(|e n f|,2)^2 q_e q_f,
    and m2 = 2 S / (n^2 sigma^2).
    """
    var = float(entry_moments(n, r, p)[1])
    diag = math.fsum(
        math.comb(n, ra) * math.comb(ra, 2) ** 2 * pa * (1 - pa) * (1 - 2 * pa) ** 2
        for ra, pa in zip(r, p)
    )
    cross = 0.0
    for a, (ra, pa) in enumerate(zip(r, p)):
        for b, (rb, pb) in enumerate(zip(r, p)):
            for k in range(2, min(ra, rb) + 1):
                # ordered pairs (e in class a, f in class b) with |e n f| = k
                count = math.comb(n, ra) * math.comb(ra, k) * math.comb(n - ra, rb - k)
                if a == b and k == ra:
                    count -= math.comb(n, ra)  # f = e
                cross += count * math.comb(k, 2) ** 2 * pa * (1 - pa) * pb * (1 - pb)
    var_s = diag + 2.0 * cross
    return var_s * (2.0 / (n * n * var)) ** 2


def m2_variance_surrogate(n: int, r, p) -> float:
    """Exact variance of one trial's m2 for the matched Gaussian surrogate.

    For jointly Gaussian unit-variance entries, Var sum_a U_a^2 = 2 sum_{a,b} C_ab^2,
    with C_ab = gamma for pairs sharing one vertex and rho for disjoint pairs.
    """
    _, var = entry_moments(n, r, p)
    shared, disjoint = entry_covariances(n, r, p)
    gamma, rho = float(shared / var), float(disjoint / var)
    pairs = math.comb(n, 2)
    var_sum = 2.0 * pairs * (1.0 + 2 * (n - 2) * gamma**2 + math.comb(n - 2, 2) * rho**2)
    return var_sum * (2.0 / (n * n)) ** 2


def exact_m4(n: int, r, p) -> float:
    """E[(1/n) tr H^4] by enumerating closed walks u0 u1 u2 u3 and expanding
    each E[L_01 L_12 L_23 L_30] into joint cumulants of independent hyperedges:
    kappa_4 terms plus the three pair partitions of kappa_2 terms."""
    edges, q, k4 = [], [], []
    for ri, pi in zip(r, p):
        for e in itertools.combinations(range(n), ri):
            edges.append(set(e))
            q.append(pi * (1 - pi))
            k4.append(pi * (1 - pi) * (1 - 6 * pi * (1 - pi)))
    q, k4 = np.array(q), np.array(k4)
    member = {
        (u, v): np.array([1.0 if u in e and v in e else 0.0 for e in edges])
        for u in range(n)
        for v in range(n)
        if u != v
    }
    var = float(entry_moments(n, r, p)[1])
    total = 0.0
    for w in itertools.product(range(n), repeat=4):
        if any(w[i] == w[(i + 1) % 4] for i in range(4)):
            continue
        a = [member[(w[i], w[(i + 1) % 4])] for i in range(4)]

        def k2(i: int, j: int) -> float:
            return float(a[i] * a[j] @ q)

        total += float(a[0] * a[1] * a[2] * a[3] @ k4)
        total += k2(0, 1) * k2(2, 3) + k2(0, 2) * k2(1, 3) + k2(0, 3) * k2(1, 2)
    return total / (n**3 * var**2)


def semicircle_cdf(s2: float, x: np.ndarray) -> np.ndarray:
    two_s = 2.0 * math.sqrt(s2)
    xc = np.clip(x, -two_s, two_s)
    root = np.sqrt(np.maximum(4 * s2 - xc * xc, 0.0))
    return 0.5 + xc * root / (4 * math.pi * s2) + np.arcsin(xc / two_s) / math.pi


def ks_to_semicircle(eigs: np.ndarray, s2: float) -> float:
    x = np.sort(eigs)
    F = semicircle_cdf(s2, x)
    m = x.size
    return float(max(np.max(np.arange(1, m + 1) / m - F), np.max(F - np.arange(m) / m), 0.0))


# ---------------------------------------------------------------------------
# readers for the program's outputs


def read_eigenvalues_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lambda"]:
        raise ValueError(f"{path}: missing 'lambda' header")
    return np.array([float(row[0]) for row in rows[1:]])


def parse_hypergraph(path: str) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """(n, [(r, rows)]) with rows as 0-based int64 arrays, read token by token."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = np.array(data.split(), dtype=np.int64)
    n, k = int(tokens[0]), int(tokens[1])
    pos, classes = 2, []
    for _ in range(k):
        r, m = int(tokens[pos]), int(tokens[pos + 1])
        pos += 2
        classes.append((r, tokens[pos : pos + r * m].reshape(m, r) - 1))
        pos += r * m
    if pos != tokens.size:
        raise ValueError(f"{path}: {tokens.size - pos} tokens after the last class")
    return n, classes


# ---------------------------------------------------------------------------
# checks


def check_montecarlo(report: dict, trial_eigs: list[np.ndarray], model: dict, engine: str) -> list[str]:
    """montecarlo / gaussian report plus its per-trial eigenvalue CSVs."""
    n, r, p, trials = model["n"], model["r"], model["p"], model["trials"]
    bad = []
    if report.get("engine") != engine:
        bad.append(f"engine {report.get('engine')!r}, expected {engine!r}")
    if report.get("trials") != trials or len(trial_eigs) != trials:
        bad.append(f"{len(trial_eigs)} trial CSVs for {trials} trials")
    if any(e.size != n for e in trial_eigs):
        bad.append(f"a trial has {[e.size for e in trial_eigs]} eigenvalues, expected {n}")
        return bad
    pooled = np.concatenate(trial_eigs)

    s2 = predicted_variance(n, r, p)
    if not _close(report["s2_pred"], s2):
        bad.append(f"s2_pred {report['s2_pred']!r} != {s2!r} from math.comb")
    ks = ks_to_semicircle(pooled, s2)
    if not abs(report["ks_distance"] - ks) <= 1e-9:
        bad.append(f"ks_distance {report['ks_distance']!r} != {ks!r} recomputed")
    if not ks <= KS_LIMIT:
        bad.append(f"KS {ks:.4f} to the predicted semicircle exceeds {KS_LIMIT}")

    m2 = float(np.mean(pooled**2))
    if not _close(report["m2"], m2):
        bad.append(f"m2 {report['m2']!r} != {m2!r} from the eigenvalue CSVs")
    var = m2_variance_bernoulli(n, r, p) if engine == "bernoulli" else m2_variance_surrogate(n, r, p)
    tol = MC_SIGMAS * math.sqrt(var / trials)
    if not abs(report["m2"] - (n - 1) / n) <= tol:
        bad.append(f"m2 {report['m2']:.6f} not within {tol:.2e} of (n-1)/n")
    return bad


def check_verify(report: dict, model: dict, m4_exact: float) -> list[str]:
    n, r, p, trials = model["n"], model["r"], model["p"], model["trials"]
    bad = []
    if report.get("passed") is not True:
        bad.append("verify did not report passed")
    if report.get("trials") != trials:
        bad.append(f"verify ran {report.get('trials')} trials, expected {trials}")
    got = {c["name"]: c for c in report.get("checks", [])}
    shared, disjoint = map(float, entry_covariances(n, r, p))
    sd_m2 = math.sqrt(m2_variance_bernoulli(n, r, p) / trials)

    def exact(want: float, rel: float) -> tuple[float, float]:
        return want, rel * max(1.0, abs(want))

    expected = {
        "oracle_m2_identity": ("got", *exact((n - 1) / n, 1e-12)),
        "oracle_cov_shared_vertex": ("got", *exact(shared, 1e-12)),
        "oracle_cov_disjoint": ("got", *exact(disjoint, 1e-12)),
        "montecarlo_m4_vs_oracle": ("expected", *exact(m4_exact, 1e-10)),
        "montecarlo_m2_vs_oracle": ("got", (n - 1) / n, MC_SIGMAS * sd_m2),
    }
    for name, (field, want, tol) in expected.items():
        if name not in got:
            bad.append(f"verify report lacks check {name}")
        elif not abs(got[name][field] - want) <= tol:
            bad.append(f"{name}.{field} = {got[name][field]!r}, expected {want!r} (tol {tol:.2e})")
    return bad


def _distinct_rows(rows: np.ndarray, n: int) -> int:
    if rows.shape[1] * math.log2(n) < 62:
        keys = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(rows.shape[1]):
            keys = keys * n + rows[:, j]
        return int(np.unique(keys).size)
    return int(np.unique(rows, axis=0).shape[0])


def check_hypergraph_file(path: str, model: dict) -> tuple[list[str], tuple | None]:
    """Parse the written file; returns (failures, parsed), where parsed is
    None unless the file passed, since H is only defined for a valid file."""
    n, r, p = model["n"], model["r"], model["p"]
    try:
        fn, classes = parse_hypergraph(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable hypergraph file: {exc}"], None
    bad = []
    if fn != n or [c[0] for c in classes] != list(r):
        bad.append(f"file declares n={fn}, r={[c[0] for c in classes]}")
        return bad, None
    for (ri, rows), pi in zip(classes, p):
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            bad.append(f"class r={ri}: vertex outside 1..{n}")
        if ri > 1 and rows.size and not np.all(np.diff(rows, axis=1) > 0):
            bad.append(f"class r={ri}: a row is not strictly ascending")
        if _distinct_rows(rows, n) != rows.shape[0]:
            bad.append(f"class r={ri}: duplicate rows")
        mean = math.comb(n, ri) * pi
        sd = math.sqrt(mean * (1 - pi))
        if abs(rows.shape[0] - mean) > 6 * sd:
            bad.append(f"class r={ri}: {rows.shape[0]} edges, expected {mean:.0f} +- 6*{sd:.0f}")
    return bad, None if bad else (fn, classes)


def frobenius_sq(n: int, classes, r, p) -> float:
    """||H||_F^2 for H = (A - mu)/sqrt(n sigma^2) off the diagonal, A from the parse."""
    counts = np.zeros(n * n, dtype=np.int64)
    for ri, rows in classes:
        for i, j in itertools.combinations(range(ri), 2):
            counts += np.bincount(rows[:, i] * n + rows[:, j], minlength=n * n)
    A = counts.reshape(n, n)
    A = (A + A.T).astype(np.float64)
    mu, var = map(float, entry_moments(n, r, p))
    off = ~np.eye(n, dtype=bool)
    return float(np.sum((A[off] - mu) ** 2) / (n * var))


def check_spectrum(eigs: np.ndarray, parsed, model: dict) -> list[str]:
    n = model["n"]
    if eigs.size != n:
        return [f"spectrum wrote {eigs.size} eigenvalues, expected {n}"]
    bad = []
    scale = float(np.max(np.abs(eigs)))
    if not abs(float(np.sum(eigs))) <= 1e-9 * n * scale:
        bad.append(f"sum of eigenvalues {float(np.sum(eigs)):.3e} is not 0 (trace H = 0)")
    if parsed is not None:
        fro = frobenius_sq(n, parsed[1], model["r"], model["p"])
        got = float(np.sum(eigs**2))
        if not _close(got, fro):
            bad.append(f"sum of squared eigenvalues {got!r} != ||H||_F^2 {fro!r}")
    return bad


def trial_csvs(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.startswith("eigenvalues_trial") and f.endswith(".csv")
    )
