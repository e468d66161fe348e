"""Command-line front end: config resolution, reports, file formats, exit codes."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import hyperspectra.cli as cli_module
import hyperspectra.hypergraph as hypergraph_module
from hyperspectra import (
    ModelParams,
    SemicircleLaw,
    adjacency,
    center_scale,
    covariance_profile,
    eigenvalues,
    sample_adjacency_stack,
    sample_hypergraph,
    sample_surrogate,
)
from hyperspectra.cli import (
    ConfigError,
    _svg_histogram,
    dumps,
    main,
    resolve_config,
    run_analyze,
    run_montecarlo,
    run_verify,
)


def cfg_of(**over):
    return resolve_config(None, over)


# ---------------------------------------------------------------------------
# serialization


def test_dumps_is_deterministic_and_typed():
    report = {
        "flag": True,
        "count": 3,
        "x": 0.1,
        "none": None,
        "inf": float("inf"),
        "ninf": float("-inf"),
        "nan": float("nan"),
        "vec": [1.0, 2.5],
        "nested": {"a": [1, 2]},
    }
    text = dumps(report)
    assert text == dumps(report)
    assert '"flag": true' in text
    assert '"count": 3' in text
    assert '"x": 0.10000000000000001' in text
    assert '"inf": "inf"' in text
    assert '"ninf": "-inf"' in text
    assert '"nan": "nan"' in text
    assert text.endswith("\n")
    # bools must not be serialized as integers
    assert '"flag": 1' not in text


def test_dumps_17_digit_roundtrip():
    rng = np.random.default_rng(2)
    vals = list(rng.standard_normal(64)) + [1e-300, 1e300, 2.0**-1074]
    text = dumps({"vals": vals})
    back = json.loads(text)
    assert back["vals"] == vals


def test_dumps_empty_and_unserializable():
    assert dumps({}) == "{}\n"
    assert dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps({"x": object()})


def test_svg_histogram_skips_empty_bins():
    # the background and one bar per non-empty bin, each at its bin's left edge
    edges = np.linspace(-2.0, 2.0, 6)
    masses = np.array([0.2, 0.0, 0.5, 0.0, 0.3])
    for law in (None, SemicircleLaw(1.0)):
        svg = _svg_histogram(edges, masses, law)
        bars = [line for line in svg.splitlines() if 'fill="#7aa6c2"' in line]
        assert svg.count("<rect ") == 1 + len(bars) == 4
        xs = [float(bar.split('x="')[1].split('"')[0]) for bar in bars]
        # bins 0, 2 and 4 of [-2, 2] (the law's radius is 2) on a 640-wide plot
        assert xs == pytest.approx([48.0, 265.6, 483.2])
        assert svg.count("<polyline ") == (law is not None)


# ---------------------------------------------------------------------------
# configuration


def test_resolve_config_layering():
    cfg = resolve_config({"n": 10, "seed": 4}, {"seed": 9})
    assert cfg["n"] == 10
    assert cfg["seed"] == 9
    assert cfg["bins"] == 100
    assert cfg["engine"] == "auto"


def test_resolve_config_rejects_unknown_and_bad():
    with pytest.raises(ConfigError):
        resolve_config({"unknown_key": 1}, None)
    with pytest.raises(ConfigError):
        resolve_config(None, {"engine": "quantum"})
    with pytest.raises(ConfigError):
        resolve_config(None, {"z": [1.0, -2.0]})
    with pytest.raises(ConfigError):
        resolve_config(None, {"eps": 0.0})
    with pytest.raises(ConfigError):
        resolve_config(None, {"budget": {"max_edges": 0}})
    with pytest.raises(ConfigError):
        resolve_config({"budget": {"max_rejections": 100}}, None)
    with pytest.raises(ConfigError):
        resolve_config(None, {"emit": ["png"]})
    with pytest.raises(ConfigError):
        resolve_config({"emit": [["json"]]}, None)
    with pytest.raises(ConfigError):
        resolve_config({"out_dir": 5}, None)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_report_values():
    report = run_analyze(cfg_of(n=5, r=[2, 3], p=[0.5, 0.5]))
    assert report["schema_version"] == 1
    assert report["derived"]["sigma_sq"] == pytest.approx(1.0, rel=1e-13)
    assert report["derived"]["w_fin"] == pytest.approx([0.25, 0.75], rel=1e-12)
    assert report["regime"] is not None
    assert report["covariance_profile"]["theta_sq"] == pytest.approx(
        1.0 - 2 * report["covariance_profile"]["gamma_n"]
        + report["covariance_profile"]["rho_n"],
        abs=1e-12,
    )
    assert report["chatterjee"]["total"] >= 0.0

    k1 = run_analyze(cfg_of(n=50, r=[3], p=[0.1]))
    assert k1["regime"] is None


def test_analyze_cli_exit_codes(capsys):
    assert main(["analyze", "--n", "5", "--r", "2,3", "--p", "0.5,0.5"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["params"]["n"] == 5

    assert main(["analyze", "--n", "5", "--r", "3", "--p", "0.0"]) == 3
    assert main(["analyze", "--n", "5", "--r", "9", "--p", "0.1"]) == 2
    assert main(["analyze", "--n", "5", "--r", "3"]) == 2  # missing p
    capsys.readouterr()


def test_analyze_csv_format(capsys):
    assert main(
        ["analyze", "--n", "5", "--r", "2", "--p", "0.5", "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("derived.sigma_sq,") for line in lines)


def test_analyze_out_file(tmp_path, capsys):
    model = ["--n", "500", "--r", "2,3", "--p", "0.05,0.001"]
    assert main(["analyze", *model, "--out", str(tmp_path / "json")]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "json" / "analyze.json").read_text() == out

    # the file stays JSON when stdout is CSV
    assert main(["analyze", *model, "--format", "csv", "--out", str(tmp_path / "csv")]) == 0
    assert capsys.readouterr().out.startswith("key,value\n")
    report = run_analyze(cfg_of(n=500, r=[2, 3], p=[0.05, 0.001]))
    assert (tmp_path / "csv" / "analyze.json").read_text() == dumps(report)


def test_config_file_and_overrides(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 5, "r": [2], "p": [0.5], "seed": 3}))
    assert main(["analyze", "--config", str(path), "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["n"] == 5

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad)]) == 2
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 5
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n": 5, "r": [2], "p": [0.5], "zz": 1}))
    assert main(["analyze", "--config", str(unknown)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "classes",
    [{"r": [2.9], "p": [0.5]}, {"r": ["2"], "p": [0.5]}, {"r": [2], "p": ["0.1"]}],
    ids=["float-r", "string-r", "string-p"],
)
def test_config_file_rejects_untyped_classes(tmp_path, capsys, classes):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 5, **classes}))
    assert main(["montecarlo", "--config", str(path), "--trials", "1", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, message",
    [
        ({"budget": 5}, "budget must be an object"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"bins": 10**8}, "bins must be in 1..65536, got 100000000"),
        ({"bins": 2**16 + 1}, "bins must be in 1..65536, got 65537"),
        ({"r": 3}, "r must be a list"),
        ({"z": [1.0]}, "z must be [re, im], got [1.0]"),
        ({"z": [float("nan"), 1]}, "z must be finite, got [nan, 1]"),
        ({"z": [0, float("inf")]}, "z must be finite, got [0, inf]"),
        ({"z": [10**400, 1]}, f"z must be finite, got [{10**400}, 1]"),
        ({"format": "xml"}, "format must be json or csv, got 'xml'"),
        ({"quiet": "yes"}, "quiet must be a boolean, got 'yes'"),
    ],
    ids=["budget", "seed", "workers", "bins-huge", "bins-cap", "r", "z", "z-nan", "z-inf", "z-huge", "format", "quiet"],
)
def test_config_file_rejects_bad_values(tmp_path, capsys, values, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 5, "r": [2], "p": [0.5], **values}))
    assert main(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_array_and_nulls(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    assert main(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config file {path} must hold a JSON object\n"
    # a null value keeps the default
    path.write_text(json.dumps({"n": 5, "r": [2], "p": [0.5], "eps": None, "z": None}))
    assert main(["analyze", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pastur"]["eps"] == 1.0
    assert report["chatterjee"]["z"] == [0.0, 1.0]


def test_flag_refusals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--n", "5", "--r", "2,x", "--p", "0.5"])
    assert exc.value.code == 2
    assert "argument --r: bad integer list '2,x'" in capsys.readouterr().err
    # ModelParams refuses the vertex count
    assert main(["analyze", "--n", "1", "--r", "2", "--p", "0.5"]) == 2
    assert capsys.readouterr().err == "error: need an integer vertex count n >= 2, got 1\n"


def test_analyze_zero_variance_class(capsys):
    # p = 1 in class 1: no variance, so no weight and no tail mass there
    assert main(["analyze", "--n", "50", "--r", "2,3", "--p", "0.1,1.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["derived"]["w_fin"] == [1.0, 0.0]
    for law in ("bernoulli", "gaussian"):
        assert report["pastur"][law]["log_per_class"][1] == "-inf"


# ---------------------------------------------------------------------------
# sample and spectrum


def test_sample_complete_file(tmp_path, capsys):
    assert main(
        ["sample", "--n", "5", "--r", "2", "--p", "1.0", "--out", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    text = (tmp_path / "hypergraph.txt").read_text()
    lines = text.splitlines()
    assert lines[0] == "5 1"
    assert lines[1] == "2 10"
    assert len(lines) == 12


def test_sample_budget_exit(capsys):
    code = main(
        [
            "sample",
            "--n", "100000", "--r", "5", "--p", "0.5",
            "--max-edges", "1000000",
        ]
    )
    assert code == 4
    capsys.readouterr()


@pytest.mark.parametrize("r, p", [("3", "1e-22"), ("2", "1e-13")], ids=["poisson", "rank-walk"])
def test_sample_refuses_ids_past_int32(monkeypatch, capsys, r, p):
    def never(*args, **kwargs):
        raise AssertionError("allocated for vertex ids past int32")

    monkeypatch.setattr(hypergraph_module, "_binomial_table", never)
    monkeypatch.setattr(hypergraph_module, "_poisson_subsets", never)
    assert main(["sample", "--n", "3000000000", "--r", r, "--p", p]) == 2
    assert capsys.readouterr().err == "error: n = 3000000000 exceeds 2^31: vertex ids are int32\n"


def test_sample_dense_class_exits_zero(tmp_path, capsys):
    # K close to C(10,3) = 120: every row must still be ascending and distinct
    code = main(
        [
            "sample",
            "--n", "10", "--r", "3", "--p", "0.8",
            "--max-edges", "100",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "hypergraph.txt").read_text().splitlines()
    r, m = (int(v) for v in lines[1].split())
    rows = np.array([[int(v) for v in line.split()] for line in lines[2:]])
    assert r == 3 and rows.shape == (m, 3)
    assert (np.diff(rows, axis=1) > 0).all()
    assert np.unique(rows, axis=0).shape[0] == m


def test_dense_allocation_failure_exit(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate dense matrix")

    # spectrum builds its matrix through adjacency, montecarlo's Bernoulli
    # trials through the batch sampler's pair-count accumulator
    hpath = tmp_path / "h.txt"
    hpath.write_text("4 1\n2 0\n")
    monkeypatch.setattr(cli_module, "adjacency", no_memory)
    monkeypatch.setattr(hypergraph_module, "_pair_counts", no_memory)
    for argv in (
        ["spectrum", str(hpath), "--n", "4", "--r", "2", "--p", "0.5", "--out", str(tmp_path)],
        [
            "montecarlo",
            "--n", "30", "--r", "2", "--p", "0.2",
            "--trials", "1", "--engine", "bernoulli", "--quiet",
        ],
    ):
        assert main(argv) == 4
        assert "error: out of memory: Unable to allocate dense matrix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, shape",
    [
        # budget fits, so engine auto samples exactly
        (["montecarlo", "--n", "2147483648", "--r", "2", "--p", "1e-13"], 2147483648),
        (["montecarlo", "--n", "1100000000", "--r", "2", "--p", "1e-13"], 1100000000),
        (["gaussian", "--n", "3037000500", "--r", "2", "--p", "0.5"], 3037000500),
        (["spectrum", "{file}", "--n", "1100000000", "--r", "2", "--p", "1e-13"], 1100000000),
    ],
    ids=["montecarlo-2^31", "montecarlo-1.1e9", "gaussian", "spectrum"],
)
def test_dense_size_refusal_exit(tmp_path, capsys, argv, shape):
    # a dense stack past sys.maxsize bytes is refused as out of memory before
    # numpy is asked for it (numpy's own "array is too big" was exit 2)
    hpath = tmp_path / "h.txt"
    hpath.write_text("1100000000 1\n2 0\n")
    argv = [arg.format(file=hpath) for arg in argv]
    assert main([*argv, "--trials", "1"] if argv[0] != "spectrum" else argv) == 4
    assert capsys.readouterr().err == (
        f"error: out of memory: a (1, {shape}, {shape}) array of 8-byte entries "
        f"needs {8 * shape**2} bytes\n"
    )


def test_montecarlo_huge_bins_exit(capsys):
    # 10^15 bins is 8 PB: refused as configuration before anything is
    # allocated, not left to fail (or be killed) in the histogram
    code = main(
        [
            "montecarlo",
            "--n", "20", "--r", "2", "--p", "0.5",
            "--trials", "1", "--bins", "1000000000000000", "--quiet",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: bins must be in 1..65536, got 1000000000000000\n"


def test_spectrum_empty_hypergraph(tmp_path, capsys):
    # zero adjacency: H = -mu/sqrt(n sigma^2) (J - I), spectrum
    # {-(n-1) mu, mu, ...} / sqrt(n sigma^2)
    hpath = tmp_path / "empty.txt"
    hpath.write_text("4 1\n2 0\n")
    code = main(
        [
            "spectrum", str(hpath),
            "--n", "4", "--r", "2", "--p", "0.5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "lambda"
    vals = [float(v) for v in lines[1:]]
    assert vals == pytest.approx([-1.5, 0.5, 0.5, 0.5], abs=1e-12)


def test_spectrum_mismatched_model(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    hpath.write_text("4 1\n2 0\n")
    assert main(["spectrum", str(hpath), "--n", "5", "--r", "2", "--p", "0.5"]) == 2
    assert main(["spectrum", str(hpath), "--n", "4", "--r", "3", "--p", "0.5"]) == 2
    assert main(["spectrum", str(tmp_path / "no.txt"), "--n", "4", "--r", "2", "--p", "0.5"]) == 5
    capsys.readouterr()


def test_spectrum_scale_not_representable(tmp_path, capsys):
    # n sigma^2 = 2000 C(1998, 598) 0.21 overflows a double
    path = tmp_path / "h.txt"
    path.write_text("2000 1\n600 0\n")
    assert main(["spectrum", str(path), "--n", "2000", "--r", "600", "--p", "0.3"]) == 2
    assert "scale sqrt(n sigma^2) not representable" in capsys.readouterr().err


def test_spectrum_huge_integer_exit(tmp_path, capsys):
    hpath = tmp_path / "h.txt"
    hpath.write_text("5 1\n2 1\n1 99999999999999999999\n")
    assert main(["spectrum", str(hpath), "--n", "5", "--r", "2", "--p", "0.5"]) == 2
    assert "bad integer" in capsys.readouterr().err


def test_spectrum_digit_separator_exit(tmp_path, capsys):
    # int() reads "0_2" as 2; the file grammar is [+-]?[0-9]+
    hpath = tmp_path / "h.txt"
    hpath.write_text("5 1\n2 1\n1 0_2\n")
    assert main(["spectrum", str(hpath), "--n", "5", "--r", "2", "--p", "0.5"]) == 2
    assert "bad integer" in capsys.readouterr().err


def test_spectrum_csv_precision(tmp_path, capsys):
    assert main(
        ["sample", "--n", "30", "--r", "3", "--p", "0.1", "--seed", "8", "--out", str(tmp_path)]
    ) == 0
    assert main(
        [
            "spectrum", str(tmp_path / "hypergraph.txt"),
            "--n", "30", "--r", "3", "--p", "0.1", "--out", str(tmp_path),
        ]
    ) == 0
    capsys.readouterr()
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "lambda"
    assert len(lines) == 31
    # 17 significant digits survive the float round trip
    for v in lines[1:]:
        assert float(v) == float(format(float(v), ".17g"))


# ---------------------------------------------------------------------------
# montecarlo / gaussian


def test_montecarlo_deterministic_across_workers():
    # n = 300 is one trial per batch; n = 40 puts 20 trials in a batch
    for base in (
        dict(n=300, r=[3], p=[0.01], trials=4, seed=42, bins=40),
        dict(n=40, r=[2, 3], p=[0.3, 0.02], trials=50, seed=42, bins=40),
    ):
        for command in ("montecarlo", "gaussian"):
            r1 = run_montecarlo(cfg_of(**base, workers=1), command)
            r3 = run_montecarlo(cfg_of(**base, workers=3), command)
            assert dumps(r1) == dumps(r3)


def test_workers_capped_at_cpu_count(monkeypatch):
    # a worker count far above the CPUs starts at most os.cpu_count()
    # threads (none beyond the caller's on one CPU) and reports the same
    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    base = dict(n=40, r=[2, 3], p=[0.3, 0.02], trials=50, seed=42, bins=40)
    want = dumps(run_montecarlo(cfg_of(**base, workers=1)))
    assert started == []
    assert dumps(run_montecarlo(cfg_of(**base, workers=10**6))) == want
    cpus = os.cpu_count() or 1
    assert started == ([cpus] if cpus > 1 else [])


def test_montecarlo_deterministic_across_reruns():
    cfg = cfg_of(n=4, r=[2], p=[0.5], trials=1, seed=11)
    assert dumps(run_montecarlo(cfg)) == dumps(run_montecarlo(cfg))


def test_montecarlo_superposition_s2():
    report = run_montecarlo(cfg_of(n=2000, r=[2, 2], p=[0.3, 0.5], trials=1, seed=1))
    want = (1.0 - 2.0 / 2000.0) ** 2
    assert report["s2_pred"] == pytest.approx(want, rel=1e-12)
    assert abs(report["s2_pred"] - 1.0) < 0.01
    assert report["engine"] == "bernoulli"
    assert report["m2"] == pytest.approx((2000 - 1) / 2000, abs=0.02)


def test_montecarlo_auto_switches_to_surrogate():
    cfg = cfg_of(n=2000, r=[600], p=[0.3], trials=1, seed=5)
    report = run_montecarlo(cfg)
    assert report["engine"] == "gaussian-surrogate"
    assert any("surrogate" in note for note in report["notes"])
    assert report["s2_pred"] == pytest.approx(0.49, abs=0.01)


def test_montecarlo_forced_bernoulli_raises():
    from hyperspectra import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        run_montecarlo(cfg_of(n=2000, r=[600], p=[0.3], trials=1, engine="bernoulli"))


def test_montecarlo_bernoulli_budget_exit(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(hypergraph_module, "_draw_classes", never)
    argv = ["--n", "2000", "--r", "600", "--p", "0.3", "--trials", "3", "--quiet"]
    for workers in ("1", "3"):
        assert main(["montecarlo", *argv, "--engine", "bernoulli", "--workers", workers]) == 4
        assert capsys.readouterr().err == (
            "error: expected edge count exp(1216.585) exceeds budget.max_edges = 10000000\n"
        )


def test_gaussian_subcommand_forces_surrogate(capsys):
    assert main(
        [
            "gaussian",
            "--n", "60", "--r", "3", "--p", "0.2",
            "--trials", "2", "--seed", "3", "--quiet",
        ]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "gaussian"
    assert report["engine"] == "gaussian-surrogate"


@pytest.mark.parametrize("command", ["montecarlo", "gaussian"])
def test_montecarlo_report_file_rule(tmp_path, capsys, command):
    # the report file follows emit, not format, and equals the JSON stdout
    argv = [command, "--n", "30", "--r", "3", "--p", "0.2", "--trials", "2", "--seed", "4"]
    assert main([*argv, "--out", str(tmp_path / "both"), "--emit", "json,csv"]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "both" / f"{command}.json").read_text() == out
    assert (tmp_path / "both" / "eigenvalues_trial0001.csv").is_file()

    assert main([*argv, "--out", str(tmp_path / "csv"), "--emit", "csv"]) == 0
    assert capsys.readouterr().out == out
    assert sorted(path.name for path in (tmp_path / "csv").iterdir()) == [
        "eigenvalues_trial0000.csv",
        "eigenvalues_trial0001.csv",
    ]

    assert main([*argv, "--out", str(tmp_path / "fmt"), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("key,value\n")
    assert (tmp_path / "fmt" / f"{command}.json").read_text() == out


def test_gaussian_refuses_three_vertex_profile(capsys):
    # at n = 3 no entries are vertex-disjoint: gamma = 1, rho = 0 and
    # theta^2 = -1, which no surrogate matches
    model = ["--n", "3", "--r", "3", "--p", "0.5"]
    assert main(["analyze", *model]) == 0
    profile = json.loads(capsys.readouterr().out)["covariance_profile"]
    assert profile == {"rho_n": 0, "gamma_n": 1, "theta_sq": -1}
    assert main(["gaussian", *model]) == 2
    assert capsys.readouterr().err == (
        "error: inconsistent profile: gamma - rho = 1.0, theta^2 = -1.0\n"
    )


def test_montecarlo_emit_files(tmp_path, capsys):
    assert main(
        [
            "montecarlo",
            "--n", "40", "--r", "3", "--p", "0.05",
            "--trials", "2", "--seed", "9", "--bins", "16",
            "--out", str(tmp_path), "--emit", "json,csv,svg", "--quiet",
        ]
    ) == 0
    stdout_report = json.loads(capsys.readouterr().out)
    on_disk = json.loads((tmp_path / "montecarlo.json").read_text())
    assert on_disk == stdout_report
    for t in range(2):
        lines = (tmp_path / f"eigenvalues_trial{t:04d}.csv").read_text().splitlines()
        assert lines[0] == "lambda"
        assert len(lines) == 41
    svg = (tmp_path / "montecarlo.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "r, p",
    [
        ((2, 3), (0.1, 0.05)),  # both classes on the rank walk
        ((2, 15), (0.05, 1e-18)),  # C(200, 15) > 2^62: the r = 15 class is on the Poisson path
    ],
)
def test_montecarlo_trial_is_one_draw(tmp_path, capsys, r, p):
    # at n = 200 a batch is one trial, so trial t is the single hypergraph
    # sample_hypergraph draws from _trial_seed(seed, t), whatever the worker
    # count
    params = ModelParams.of(200, list(r), list(p))
    seed, trials = 11, 3
    expected = []
    for t in range(trials):
        h = sample_hypergraph(params, cli_module._trial_seed(seed, t))
        expected.append(cli_module._eigs_csv(eigenvalues(center_scale(adjacency(h), params))))
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(
            [
                "montecarlo",
                "--n", "200", "--r", ",".join(map(str, r)), "--p", ",".join(map(repr, p)),
                "--trials", str(trials), "--seed", str(seed), "--engine", "bernoulli",
                "--workers", workers, "--out", str(out), "--emit", "csv", "--quiet",
            ]
        ) == 0
        for t in range(trials):
            assert (out / f"eigenvalues_trial{t:04d}.csv").read_text() == expected[t]
    capsys.readouterr()


def test_montecarlo_batch_is_one_stack(tmp_path, capsys):
    # n = 40 puts 20 trials in a batch: batch b's trials are the rows of one
    # stack drawn from _trial_seed(seed, b), whatever the worker count
    params = ModelParams.of(40, [2, 3], [0.3, 0.02])
    profile = covariance_profile(params)
    seed, trials, size = 11, 50, 20
    assert cli_module._TRIAL_BATCH_BYTES // (8 * 40 * 40) == size
    for command in ("montecarlo", "gaussian"):
        expected = []
        for b, t in enumerate((size, size, trials - 2 * size)):
            batch_seed = cli_module._trial_seed(seed, b)
            if command == "montecarlo":
                stack = center_scale(sample_adjacency_stack(params, batch_seed, t), params)
            else:
                stack = sample_surrogate(40, profile, batch_seed, t)
            expected += [cli_module._eigs_csv(eigenvalues(H)) for H in stack]
        for workers in ("1", "3"):
            out = tmp_path / command / workers
            assert main(
                [
                    command, "--n", "40", "--r", "2,3", "--p", "0.3,0.02",
                    "--trials", str(trials), "--seed", str(seed), "--workers", workers,
                    "--out", str(out), "--emit", "csv", "--quiet",
                ]
            ) == 0
            for t in range(trials):
                assert (out / f"eigenvalues_trial{t:04d}.csv").read_text() == expected[t]
    capsys.readouterr()


def test_montecarlo_zero_predicted_variance(capsys):
    # r = n: every entry is the same single hyperedge, so the predicted
    # variance sum_i w_i (1 - r_i / n)^2 is zero and no law is compared
    assert main(
        ["montecarlo", "--n", "4", "--r", "4", "--p", "0.5", "--trials", "2", "--quiet"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["s2_pred"] == 0.0
    assert report["ks_distance"] == "nan"
    assert any("predicted variance is zero" in note for note in report["notes"])


def test_montecarlo_histogram_masses_sum():
    report = run_montecarlo(cfg_of(n=50, r=[2], p=[0.3], trials=3, seed=2, bins=25))
    assert math.fsum(report["histogram"]["masses"]) == pytest.approx(1.0, abs=1e-9)
    assert len(report["histogram"]["edges"]) == 26


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_exit_zero(capsys):
    assert main(
        [
            "verify",
            "--n", "4", "--r", "2,3", "--p", "0.5,0.5",
            "--trials", "4000", "--seed", "1", "--quiet",
        ]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "oracle_m2_identity" in names
    assert "montecarlo_m4_vs_oracle" in names


def test_verify_side_channel(capsys):
    argv = ["verify", "--n", "4", "--r", "2,3", "--p", "0.5,0.5", "--trials", "500"]
    assert main([*argv, "--seed", "0"]) == 0
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["checks"]
    lines = captured.err.splitlines()
    assert len(lines) == len(checks)
    for line, c in zip(lines, checks):
        assert line.startswith(f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']}: "), line

    assert main([*argv, "--seed", "0", "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    assert main([*argv[:-1], "1"]) == 2
    assert "verify needs trials >= 2" in capsys.readouterr().err


def test_verify_out_file(tmp_path, monkeypatch, capsys):
    argv = ["verify", "--n", "4", "--r", "2,3", "--p", "0.5,0.5", "--trials", "500", "--quiet"]
    assert main([*argv, "--out", str(tmp_path / "pass")]) == 0
    assert (tmp_path / "pass" / "verify.json").read_text() == capsys.readouterr().out

    # a failed verify leaves its report too; out_dir from a config file
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "fail")}))
    # no Monte Carlo slack: both Monte Carlo checks fail
    monkeypatch.setattr(cli_module, "_VERIFY_Z", 0.0)
    assert main([*argv, "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["passed"] is False
    assert (tmp_path / "fail" / "verify.json").read_text() == out


def test_verify_report_structure():
    report = run_verify(cfg_of(n=4, r=[2, 3], p=[0.5, 0.5], trials=500, seed=0))
    m2 = next(c for c in report["checks"] if c["name"] == "oracle_m2_identity")
    assert m2["expected"] == pytest.approx(0.75, abs=1e-14)
    assert all(c["ok"] for c in report["checks"])


def test_verify_flags_biased_sampler(monkeypatch, capsys):
    # The walk with gaps clipped at pop rather than pop + 1 can never leave
    # a class empty: where the exact walk keeps no rank it keeps rank pop - 1.
    # At n = 4 that moves MC m4 from 1.2708 to about 1.11, some 11 sd.
    exact_walk = hypergraph_module._bernoulli_ranks

    def never_empty(rng, pop, p):
        kept = 0
        for piece in exact_walk(rng, pop, p):
            kept += piece.size
            yield piece
        if not kept:
            yield np.array([pop - 1], dtype=np.int64)

    monkeypatch.setattr(hypergraph_module, "_bernoulli_ranks", never_empty)
    # one trial per batch, so each walk covers one trial's ranks
    monkeypatch.setattr(cli_module, "_TRIAL_BATCH_BYTES", 8 * 4 * 4)
    argv = ["verify", "--n", "4", "--r", "2,3", "--p", "0.5,0.5", "--trials", "10000"]
    assert main([*argv, "--seed", "2", "--quiet"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "montecarlo_m4_vs_oracle" in failed


def test_verify_decision_quantile():
    # family-wise false-alarm rate 1e-4 over two two-sided checks
    z = sps.norm.isf(1e-4 / 4)
    assert z <= cli_module._VERIFY_Z <= z + 1e-3


def test_verify_budget_exit(capsys):
    # expected 5 edges per trial against a budget of 1
    argv = ["verify", "--n", "4", "--r", "2,3", "--p", "0.5,0.5", "--trials", "10"]
    assert main([*argv, "--max-edges", "1"]) == 4
    capsys.readouterr()


def test_verify_refuses_before_enumerating(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("oracle called before a refusal")

    monkeypatch.setattr(cli_module, "exact_eesd_moments", never)
    monkeypatch.setattr(cli_module, "exact_covariances", never)
    argv = ["verify", "--n", "5", "--r", "2,3", "--p", "0.5,0.5", "--trials", "10000"]
    assert main([*argv, "--max-edges", "1"]) == 4
    # one possible hyperedge, but n = 9 is outside the covariance oracle's 4..8
    assert main(["verify", "--n", "9", "--r", "9", "--p", "0.5"]) == 2
    assert "need 4 <= n <= 8" in capsys.readouterr().err


def test_verify_rejects_oversized_model(capsys):
    assert main(["verify", "--n", "10", "--r", "3", "--p", "0.5", "--trials", "10"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# module entry point


def run_module(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "hyperspectra.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point(capsys):
    model = ["--n", "500", "--r", "2,3", "--p", "0.05,0.001"]
    proc = run_module("analyze", *model)
    assert proc.returncode == 0, proc.stderr
    assert main(["analyze", *model]) == 0
    assert proc.stdout == capsys.readouterr().out

    proc = run_module("sample", "--n", "100000", "--r", "5", "--p", "0.5", "--max-edges", "1000000")
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: expected edge count exp(")
