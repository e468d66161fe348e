"""Command line front end.

Subcommands
-----------
analyze     closed-form statistics report for a model (JSON)
sample      draw one hypergraph and write the text interchange format
spectrum    eigenvalues of a stored hypergraph, written as CSV
montecarlo  repeated sampling; averaged ESD against the predicted semicircle
gaussian    montecarlo forced onto the Gaussian surrogate engine
verify      exact-oracle cross-checks on a tiny model

Configuration comes from an optional JSON file (--config) with keys
n, r, p, seed, trials, bins, eps, z, budget, engine, out_dir, emit, workers,
format, quiet; command line flags override file values.  Reports are JSON
with schema_version 1, every float serialized with 17 significant digits,
and are byte-identical across runs for a fixed config and seed, regardless
of the worker count.

Exit codes: 0 success; 1 verify mismatch; 2 invalid configuration;
3 degenerate model; 4 expected edge count over budget.max_edges where the
exact sampler must run (sample, verify, montecarlo --engine bernoulli), or
out of memory; 5 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from typing import Any

import numpy as np

from .errors import BudgetExceededError, DegenerateModelError
from .gaussian import sample_surrogate
from .hypergraph import (
    MAX_EDGES,
    adjacency,
    center_scale,
    check_budget,
    read_hypergraph_text,
    sample_adjacency_stack,
    sample_hypergraph,
    write_hypergraph_text,
)
from .oracle import check_oracle_domain, exact_covariances, exact_eesd_moments
from .spectral import (
    SemicircleLaw,
    average_esd,
    eigenvalues,
    esd,
    ks_distance,
    moment,
)
from .theory import (
    REGIME_DELTA,
    ModelParams,
    chatterjee_bound,
    classify_regime_k2,
    covariance_profile,
    derive_stats,
    pastur_lhs_bernoulli,
    pastur_lhs_gaussian,
    predicted_variance,
)

__all__ = [
    "ConfigError",
    "resolve_config",
    "run_analyze",
    "run_sample",
    "run_spectrum",
    "run_montecarlo",
    "run_verify",
    "dumps",
    "main",
]

SCHEMA_VERSION = 1

_ENGINES = ("auto", "bernoulli", "gaussian-surrogate")
_EMITS = ("csv", "svg", "json")
_FORMATS = ("json", "csv")
# histogram bins, refused above this before anything is allocated
_MAX_BINS = 2**16

_DEFAULTS: dict[str, Any] = {
    "n": None,
    "r": None,
    "p": None,
    "seed": 0,
    "trials": None,
    "bins": 100,
    "eps": 1.0,
    "z": [0.0, 1.0],
    "budget": {"max_edges": MAX_EDGES},
    "engine": "auto",
    "out_dir": None,
    "emit": ["json"],
    "workers": 1,
    "format": "json",
    "quiet": False,
}


class ConfigError(ValueError):
    """Bad configuration: maps to exit code 2."""


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _scalar_token(o: Any) -> str | None:
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return str(int(o))
    if isinstance(o, (float, np.floating)):
        return _fmt_float(float(o))
    if isinstance(o, str):
        return json.dumps(o)
    return None


def _write_json(o: Any, out: list[str], indent: int) -> None:
    token = _scalar_token(o)
    if token is not None:
        out.append(token)
        return
    if isinstance(o, dict):
        items, brackets = [(json.dumps(str(key)) + ": ", val) for key, val in o.items()], "{}"
    elif isinstance(o, (list, tuple, np.ndarray)):
        tokens = [_scalar_token(v) for v in o]
        if all(t is not None for t in tokens):
            out.append("[" + ", ".join(tokens) + "]")
            return
        items, brackets = [("", val) for val in o], "[]"
    else:
        raise TypeError(f"cannot serialize {type(o).__name__}")
    if not items:
        out.append(brackets)
        return
    pad = "  " * indent
    out.append(brackets[0] + "\n")
    for i, (prefix, val) in enumerate(items):
        out.append(pad + "  " + prefix)
        _write_json(val, out, indent + 1)
        out.append(",\n" if i < len(items) - 1 else "\n")
    out.append(pad + brackets[1])


def dumps(report: dict) -> str:
    """Deterministic pretty JSON: fixed key order (insertion), floats at 17
    significant digits, LF newlines, trailing newline."""
    out: list[str] = []
    _write_json(report, out, 0)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# configuration


def resolve_config(
    file_values: dict | None = None, overrides: dict | None = None
) -> dict:
    """Defaults, then config file values, then explicit overrides."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _DEFAULTS.items()}
    for source, name in ((file_values, "config file"), (overrides, "flag")):
        if not source:
            continue
        for key, val in source.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown {name} key {key!r}")
            if val is None:
                continue
            if key == "budget":
                if not isinstance(val, dict):
                    raise ConfigError("budget must be an object")
                for bk, bv in val.items():
                    if bk != "max_edges":
                        raise ConfigError(f"unknown budget key {bk!r}")
                    cfg["budget"][bk] = bv
            else:
                cfg[key] = val
    _validate_config(cfg)
    return cfg


def _require_int(cfg: dict, key: str, low: int, high: int | None = None) -> None:
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    if val < low or (high is not None and val > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{key} must be {bound}, got {val}")


def _validate_config(cfg: dict) -> None:
    for key in ("r", "p"):
        if cfg[key] is not None and not isinstance(cfg[key], (list, tuple)):
            raise ConfigError(f"{key} must be a list")
    _require_int(cfg, "seed", 0, 2**64 - 1)
    if cfg["trials"] is not None:
        _require_int(cfg, "trials", 1)
    _require_int(cfg, "bins", 1, _MAX_BINS)
    _require_int(cfg, "workers", 1)
    eps = cfg["eps"]
    if not isinstance(eps, (int, float)) or isinstance(eps, bool) or not eps > 0:
        raise ConfigError(f"eps must be a positive number, got {eps!r}")
    z = cfg["z"]
    if (
        not isinstance(z, (list, tuple))
        or len(z) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in z)
    ):
        raise ConfigError(f"z must be [re, im], got {z!r}")
    # exact int/float comparison: refuses nan, inf and ints beyond float range
    if not all(abs(v) <= sys.float_info.max for v in z):
        raise ConfigError(f"z must be finite, got {z!r}")
    if not z[1] > 0:
        raise ConfigError(f"z must have positive imaginary part, got {z!r}")
    bv = cfg["budget"]["max_edges"]
    if isinstance(bv, bool) or not isinstance(bv, int) or bv < 1:
        raise ConfigError(f"budget.max_edges must be a positive integer, got {bv!r}")
    if cfg["engine"] not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}, got {cfg['engine']!r}")
    emit = cfg["emit"]
    if (
        not isinstance(emit, (list, tuple))
        or not all(isinstance(e, str) for e in emit)
        or not set(emit) <= set(_EMITS)
    ):
        raise ConfigError(f"emit must be a subset of {_EMITS}, got {emit!r}")
    if cfg["out_dir"] is not None and not isinstance(cfg["out_dir"], str):
        raise ConfigError(f"out_dir must be a string, got {cfg['out_dir']!r}")
    if cfg["format"] not in _FORMATS:
        raise ConfigError(f"format must be {' or '.join(_FORMATS)}, got {cfg['format']!r}")
    if not isinstance(cfg["quiet"], bool):
        raise ConfigError(f"quiet must be a boolean, got {cfg['quiet']!r}")


def _params_from_config(cfg: dict) -> ModelParams:
    if cfg["n"] is None or cfg["r"] is None or cfg["p"] is None:
        raise ConfigError("model requires n, r and p (config file or flags)")
    return ModelParams.of(cfg["n"], cfg["r"], cfg["p"])


def _params_dict(params: ModelParams) -> dict:
    return {
        "n": params.n,
        "r": list(params.r),
        "p": list(params.p),
    }


# ---------------------------------------------------------------------------
# analyze


def run_analyze(cfg: dict) -> dict:
    params = _params_from_config(cfg)
    stats = derive_stats(params)
    profile = covariance_profile(params)
    eps = float(cfg["eps"])
    z = complex(cfg["z"][0], cfg["z"][1])
    bern = pastur_lhs_bernoulli(params, eps)
    gaus = pastur_lhs_gaussian(params, eps)
    bound = chatterjee_bound(params, z, eps)

    regime = None
    if params.k == 2:
        regime = {
            "label": classify_regime_k2(params).value,
            "delta": REGIME_DELTA,
            "w_fin": list(stats.w_fin),
        }

    def tail_dict(tail) -> dict:
        return {
            "log_per_class": list(tail.log_per_class),
            "log_total": tail.log_total,
            "log_rhs_scale": tail.log_rhs_scale,
            "log_ratio": tail.log_ratio,
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "params": _params_dict(params),
        "derived": {
            "sigma_i_sq": list(stats.sigma_i_sq),
            "log_B": list(stats.log_B),
            "mu": stats.mu,
            "log_mu": stats.log_mu,
            "sigma_sq": stats.sigma_sq,
            "log_sigma_sq": stats.log_sigma_sq,
            "w_fin": list(stats.w_fin),
            "xi": stats.xi,
            "log_d": list(stats.log_d),
            "K_n": stats.K_n,
            "log_K_n": stats.log_K_n,
            "r_max": params.r_max,
            "log_class_count": list(stats.log_class_count),
        },
        "covariance_profile": {
            "rho_n": profile.rho_n,
            "gamma_n": profile.gamma_n,
            "theta_sq": profile.theta_sq,
        },
        "regime": regime,
        "pastur": {
            "eps": eps,
            "threshold": bern.threshold,
            "bernoulli": tail_dict(bern),
            "gaussian": tail_dict(gaus),
        },
        "chatterjee": {
            "z": [z.real, z.imag],
            "eps": eps,
            "total": bound.total,
            "log_total": bound.log_total,
            "parts": {
                "lambda2_bound": bound.lambda2_bound,
                "lambda3_bound": bound.lambda3_bound,
                "tail_sum_bernoulli": bound.tail_sum_bernoulli,
                "tail_sum_gaussian": bound.tail_sum_gaussian,
                "trunc3_sum": bound.trunc3_sum,
            },
        },
        "nonsparsity_log_ratio": stats.log_nonsparsity_ratio,
    }


# ---------------------------------------------------------------------------
# sample and spectrum


def _out_path(out_dir: str, name: str) -> str:
    """The path ``out_dir/name``, after creating the directory."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_text(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name`` (LF newlines); returns the path."""
    path = _out_path(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def run_sample(cfg: dict) -> str:
    params = _params_from_config(cfg)
    h = sample_hypergraph(params, cfg["seed"], cfg["budget"]["max_edges"])
    path = _out_path(cfg["out_dir"] or ".", "hypergraph.txt")
    write_hypergraph_text(h, path)
    return path


def _eigs_csv(eigs: np.ndarray) -> str:
    return "lambda\n" + "".join(_fmt_float(float(v)) + "\n" for v in eigs)


def run_spectrum(cfg: dict, hypergraph_path: str) -> str:
    params = _params_from_config(cfg)
    h = read_hypergraph_text(hypergraph_path)
    if h.n != params.n:
        raise ConfigError(f"file has n = {h.n} but config n = {params.n}")
    file_sizes = tuple(edges.shape[1] for edges in h.classes)
    if file_sizes != params.r:
        raise ConfigError(
            f"file class sizes {file_sizes} do not match config r = {params.r}"
        )
    eigs = eigenvalues(center_scale(adjacency(h), params))
    return _write_text(cfg["out_dir"] or ".", "eigenvalues.csv", _eigs_csv(eigs))


# ---------------------------------------------------------------------------
# the trial source of every experiment

# float64 bytes of one batch's (t, n, n) stack
_TRIAL_BATCH_BYTES = 2**18


def _trial_seed(master: int, batch: int) -> int:
    """Splittable per-batch stream: independent of worker count and order."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(batch,))
    return int(ss.generate_state(1, np.uint64)[0])


def _trial_source(params: ModelParams, profile, seed: int, trials: int, max_edges: int):
    """``trials`` centred, scaled trial matrices as (draw, batches):
    ``draw(b)`` is batch b, a (t, n, n) stack drawn from
    ``_trial_seed(seed, b)``, for each b in ``batches``.

    A batch holds as many trials as fit ``_TRIAL_BATCH_BYTES``, at least
    one, so batches depend on (n, trials) only.  With ``profile`` None the
    model is sampled exactly, and each draw refuses over ``max_edges``;
    otherwise the surrogate for ``profile`` is drawn.
    """
    size = max(_TRIAL_BATCH_BYTES // (8 * params.n**2), 1)

    def draw(b: int) -> np.ndarray:
        t, batch_seed = min(size, trials - b * size), _trial_seed(seed, b)
        if profile is None:
            return center_scale(sample_adjacency_stack(params, batch_seed, t, max_edges), params)
        return sample_surrogate(params.n, profile, batch_seed, t)

    return draw, range(-(-trials // size))


# ---------------------------------------------------------------------------
# monte carlo


def _svg_histogram(
    edges: np.ndarray, masses: np.ndarray, law: SemicircleLaw | None
) -> str:
    """Static histogram plus reference-density overlay, no interactivity."""
    width, height, margin = 640.0, 400.0, 48.0
    widths = np.diff(edges)
    dens = masses / widths
    lo, hi = float(edges[0]), float(edges[-1])
    if law is not None:
        lo, hi = min(lo, -law.radius), max(hi, law.radius)
    span = (hi - lo) or 1.0
    ymax = float(dens.max(initial=0.0))
    if law is not None:
        ymax = max(ymax, float(law.pdf(0.0)))
    ymax = ymax * 1.08 or 1.0

    def sx(x: float) -> float:
        return margin + (x - lo) / span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - y / ymax * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for i in range(masses.size):
        if masses[i] <= 0:
            continue
        x0, x1 = sx(float(edges[i])), sx(float(edges[i + 1]))
        y = sy(float(dens[i]))
        parts.append(
            f'<rect x="{x0:.3f}" y="{y:.3f}" width="{x1 - x0:.3f}" '
            f'height="{height - margin - y:.3f}" fill="#7aa6c2" stroke="none"/>'
        )
    if law is not None:
        xs = np.linspace(-law.radius, law.radius, 257)
        ys = np.asarray(law.pdf(xs))
        pts = " ".join(f"{sx(float(x)):.3f},{sy(float(y)):.3f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#b2432f" stroke-width="2"/>'
        )
    ax_y = height - margin
    parts.append(
        f'<line x1="{margin:.3f}" y1="{ax_y:.3f}" x2="{width - margin:.3f}" '
        f'y2="{ax_y:.3f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{margin:.3f}" y1="{margin:.3f}" x2="{margin:.3f}" '
        f'y2="{ax_y:.3f}" stroke="black" stroke-width="1"/>'
    )
    for x in (lo, 0.0, hi):
        if lo <= x <= hi:
            parts.append(
                f'<text x="{sx(x):.3f}" y="{ax_y + 18:.3f}" font-size="12" '
                f'text-anchor="middle" font-family="monospace">{x:.3g}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_montecarlo(cfg: dict, command: str = "montecarlo") -> dict:
    params = _params_from_config(cfg)
    max_edges = cfg["budget"]["max_edges"]
    seed = cfg["seed"]
    trials = cfg["trials"] if cfg["trials"] is not None else 1
    bins = cfg["bins"]

    engine = "gaussian-surrogate" if command == "gaussian" else cfg["engine"]
    notes: list[str] = []
    if engine == "auto":
        try:
            check_budget(params, max_edges)
            engine = "bernoulli"
        except BudgetExceededError:
            engine = "gaussian-surrogate"
            notes.append(
                "expected edge count exceeds budget.max_edges; "
                "switched to the gaussian surrogate"
            )

    profile = covariance_profile(params) if engine == "gaussian-surrogate" else None
    draw, batches = _trial_source(params, profile, seed, trials, max_edges)

    def batch_eigs(b: int) -> list[np.ndarray]:
        return [eigenvalues(H) for H in draw(b)]

    # more threads than CPUs gain nothing, and each holds a dense batch
    threads = min(cfg["workers"], os.cpu_count() or 1)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            per_batch = list(pool.map(batch_eigs, batches))
    else:
        per_batch = [batch_eigs(b) for b in batches]
    trial_eigs = [eigs for batch in per_batch for eigs in batch]

    pooled = esd(np.concatenate(trial_eigs))
    edges, masses = average_esd([esd(e) for e in trial_eigs], bins)
    s2_pred = predicted_variance(params)
    if s2_pred > 0.0:
        law = SemicircleLaw(s2_pred)
        ks = ks_distance(pooled, law)
    else:
        law = None
        ks = float("nan")
        notes.append("predicted variance is zero; no semicircle comparison")

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": _params_dict(params),
        "engine": engine,
        "seed": seed,
        "trials": trials,
        "bins": bins,
        "s2_pred": s2_pred,
        "ks_distance": ks,
        "m2": moment(pooled, 2),
        "m4": moment(pooled, 4),
        "eigenvalue_range": [float(pooled.atoms[0]), float(pooled.atoms[-1])],
        "histogram": {
            "edges": list(edges),
            "masses": list(masses),
        },
        "notes": notes,
    }

    # the JSON file is main's report step
    out_dir = cfg["out_dir"]
    if out_dir is not None:
        if "csv" in cfg["emit"]:
            for t, eigs in enumerate(trial_eigs):
                _write_text(out_dir, f"eigenvalues_trial{t:04d}.csv", _eigs_csv(eigs))
        if "svg" in cfg["emit"]:
            _write_text(out_dir, f"{command}.svg", _svg_histogram(edges, masses, law))
    return report


# ---------------------------------------------------------------------------
# verify


# Two-sided normal quantile (4.0556, rounded up) for a family-wise
# false-alarm rate of 1e-4 over the two Monte Carlo checks, Bonferroni-split:
# P(|Z| > z) = 5e-5 each.
_VERIFY_Z = 4.056


def _trace_moments(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1/n) trace(H^2) and (1/n) trace(H^4) of each matrix of a (t, n, n)
    stack of symmetric matrices."""
    n = H.shape[-1]
    H2 = H @ H
    return np.einsum("tii->t", H2) / n, np.einsum("tij,tij->t", H2, H2) / n


def run_verify(cfg: dict) -> dict:
    params = _params_from_config(cfg)
    max_edges = cfg["budget"]["max_edges"]
    trials = cfg["trials"] if cfg["trials"] is not None else 100_000
    if trials < 2:
        raise ConfigError("verify needs trials >= 2")
    seed = cfg["seed"]
    n = params.n
    stats = derive_stats(params)
    profile = covariance_profile(params)

    checks: list[dict] = []

    def check(name: str, got: float, expected: float, tol: float) -> None:
        checks.append(
            {
                "name": name,
                "got": got,
                "expected": expected,
                "tol": tol,
                "ok": bool(abs(got - expected) <= tol),
            }
        )

    # every refusal comes before the enumeration: oracle domain, then budget
    # at the first draw
    check_oracle_domain(params)
    draw, batches = _trial_source(params, None, seed, trials, max_edges)
    m2s, m4s = map(np.concatenate, zip(*(_trace_moments(draw(b)) for b in batches)))

    exact = exact_eesd_moments(params)
    check("oracle_m1_zero", exact.moments[0], 0.0, 1e-12)
    check("oracle_m2_identity", exact.moments[1], (n - 1) / n, 1e-12)

    covs = exact_covariances(params)
    for name, got, weight in (
        ("oracle_cov_shared_vertex", covs.shared_vertex, profile.gamma_n),
        ("oracle_cov_disjoint", covs.disjoint, profile.rho_n),
    ):
        closed = weight * stats.sigma_sq
        check(name, got, closed, 1e-12 * max(1.0, abs(closed)))

    for name, k, sample_vals in (
        ("montecarlo_m2_vs_oracle", 2, m2s),
        ("montecarlo_m4_vs_oracle", 4, m4s),
    ):
        target = exact.moments[k - 1]
        se = math.sqrt(exact.variance(k) / trials)
        # floor absorbs rounding when the statistic is deterministic (se = 0)
        tol = _VERIFY_Z * se + 1e-12 * max(1.0, abs(target))
        check(name, float(np.mean(sample_vals)), target, tol)

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": _params_dict(params),
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "passed": all(c["ok"] for c in checks),
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _list_of(convert, word: str):
    """argparse type for a comma list of ``convert`` values; empty tokens are
    skipped and a bad token is reported as a bad ``word`` list."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {word} list {text!r}") from exc

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspectra",
        description="Adjacency spectra of non-uniform random hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ints, numbers = _list_of(int, "integer"), _list_of(float, "number")

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="64-bit master seed")
        sp.add_argument("--out", metavar="DIR", dest="out_dir", help="output directory")
        sp.add_argument("--format", choices=_FORMATS)
        sp.add_argument("--quiet", action="store_true", default=None)
        sp.add_argument("--n", type=int, help="number of vertices")
        sp.add_argument("--r", type=ints, help="class sizes, e.g. 2,3")
        sp.add_argument("--p", type=numbers, help="class probabilities, e.g. 0.1,0.005")
        sp.add_argument("--eps", type=float, help="truncation multiplier")
        sp.add_argument("--z", type=numbers, metavar="RE,IM", help="spectral point")
        sp.add_argument("--max-edges", type=int)

    common(sub.add_parser("analyze", help="closed-form statistics report"))
    common(sub.add_parser("sample", help="draw one hypergraph to a text file"))

    sp = sub.add_parser("spectrum", help="eigenvalues of a stored hypergraph")
    sp.add_argument("hypergraph", metavar="FILE", help="hypergraph text file")
    common(sp)

    for name in ("montecarlo", "gaussian"):
        sp = sub.add_parser(name, help=f"{name} sampling experiment")
        common(sp)
        sp.add_argument("--trials", type=int)
        sp.add_argument("--bins", type=int)
        sp.add_argument("--workers", type=int)
        sp.add_argument(
            "--emit", type=_list_of(str.strip, "string"), help="comma list of csv,svg,json"
        )
        if name == "montecarlo":
            sp.add_argument("--engine", choices=_ENGINES)

    sp = sub.add_parser("verify", help="exact-oracle cross checks")
    common(sp)
    sp.add_argument("--trials", type=int)

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    # every option but --max-edges has its config key as dest
    over = {k: v for k, v in vars(args).items() if k in _DEFAULTS and v is not None}
    if args.max_edges is not None:
        over["budget"] = {"max_edges": args.max_edges}
    return over


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _report_csv(report: dict) -> str:
    """Flat key,value rows for scalar report fields (nested dicts dotted)."""
    rows: list[str] = ["key,value"]

    def walk(prefix: str, obj: Any) -> None:
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}.{key}" if prefix else str(key), val)
        elif isinstance(obj, (list, tuple)):
            for i, val in enumerate(obj):
                walk(f"{prefix}[{i}]", val)
        else:
            rows.append(f"{prefix},{_scalar_token(obj)}")

    walk("", report)
    return "\n".join(rows) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        file_values = _load_config_file(args.config) if args.config else None
        cfg = resolve_config(file_values, _overrides_from_args(args))

        if command in ("sample", "spectrum"):
            print(run_sample(cfg) if command == "sample" else run_spectrum(cfg, args.hypergraph))
            return 0
        if command == "analyze":
            report = run_analyze(cfg)
        elif command == "verify":
            report = run_verify(cfg)
        else:
            report = run_montecarlo(cfg, command)
        sys.stdout.write(_report_csv(report) if cfg["format"] == "csv" else dumps(report))
        # montecarlo and gaussian write the file only when emit asks for it;
        # verify writes it before the exit-1 return, so a failed run leaves it
        out_dir = cfg["out_dir"]
        if out_dir is not None and (command in ("analyze", "verify") or "json" in cfg["emit"]):
            _write_text(out_dir, f"{command}.json", dumps(report))
        if command != "verify":
            return 0
        if not cfg["quiet"]:
            for c in report["checks"]:
                status = "ok  " if c["ok"] else "FAIL"
                print(
                    f"{status} {c['name']}: got {c['got']:.12g}, "
                    f"expected {c['expected']:.12g} (tol {c['tol']:.3g})",
                    file=sys.stderr,
                )
        return 0 if report["passed"] else 1
    except DegenerateModelError as exc:
        print(f"error: degenerate model: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
