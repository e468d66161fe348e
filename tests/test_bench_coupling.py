"""The benchmark's layer tracer rebinds names on ``hyperspectra.cli`` and
``hyperspectra.hypergraph``; every name it targets must exist and be callable,
and traced CLI runs (sample + spectrum, montecarlo) must still work and be
counted, or a traced benchmark run breaks.  The benchmark's output checks
must accept a fresh ``verify`` report, or a report-schema drift fails the
benchmark rather than the tests."""

import importlib.util
from pathlib import Path

import hyperspectra.cli
import hyperspectra.hypergraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"cli": hyperspectra.cli, "hypergraph": hyperspectra.hypergraph}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layertrace_targets_resolve():
    layertrace = load_perfbench("layertrace")
    assert layertrace.TARGETS
    for module, name, _span, _peak in layertrace.TARGETS:
        assert callable(getattr(MODULES[module], name, None)), f"{module}.{name}"


def file_edge_count(path):
    """Edges declared in a hypergraph text file, read without the library."""
    lines = path.read_text().splitlines()
    pos, total = 1, 0
    for _ in range(int(lines[0].split()[1])):
        m = int(lines[pos].split()[1])
        total += m
        pos += 1 + m
    assert pos == len(lines)
    return total


def test_layertrace_traces_sample_and_spectrum(tmp_path, capsys):
    tracer = load_perfbench("layertrace").Tracer()
    # large enough (about 2 MiB of text) that the reader's peak is not
    # fixed overhead
    model = ["--n", "300", "--r", "2,4", "--p", "0.1,4e-4", "--seed", "3"]
    path = tmp_path / "hypergraph.txt"

    def round_trip(out):
        args = [*model, "--out", str(out), "--quiet"]
        assert hyperspectra.cli.main(["sample", *args]) == 0
        assert hyperspectra.cli.main(["spectrum", str(out / "hypergraph.txt"), *args]) == 0

    tracer.install(MODULES)
    try:
        round_trip(tmp_path)
        # the benchmark's memory round: tracemalloc inside the watched spans
        tracer.memory = True
        tracer.run_id = "memory"
        round_trip(tmp_path / "memory")
    finally:
        tracer.uninstall()
    capsys.readouterr()
    edges = file_edge_count(path)
    assert edges > 0
    assert tracer.counts["hypergraph.edges"] == edges
    metrics = tracer.layer_metrics(1, 1)
    assert metrics["hypergraph.adjacency.s"] > 0
    assert metrics["hypergraph.text_mib"] > 1.0
    assert metrics["hypergraph.adjacency.peak_mib"] > 0
    reader_peak = metrics["hypergraph.read_hypergraph_text.peak_mib"]
    assert 0 < reader_peak <= 6.0 * metrics["hypergraph.text_mib"]


def test_layertrace_traces_montecarlo(tmp_path, capsys):
    # the benchmark's traced mixture_montecarlo round: every trial is counted
    # at eigenvalues and center_scale
    tracer = load_perfbench("layertrace").Tracer()
    argv = [
        "montecarlo", "--n", "200", "--r", "2,3", "--p", "0.1,0.005", "--seed", "3",
        "--trials", "3", "--workers", "1", "--out", str(tmp_path), "--emit", "json,csv", "--quiet",
    ]
    tracer.install(MODULES)
    try:
        assert hyperspectra.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics(1, 3)
    assert metrics["spectral.eigenvalues.calls"] == 3
    assert metrics["hypergraph.center_scale.s"] > 0


def test_bench_check_verify_accepts_report():
    checks = load_perfbench("checks")
    model = {"n": 4, "r": [2, 3], "p": [0.5, 0.5], "trials": 3000}
    cfg = hyperspectra.cli.resolve_config(None, {**model, "seed": 5})
    report = hyperspectra.cli.run_verify(cfg)
    m4_exact = checks.exact_m4(model["n"], model["r"], model["p"])
    assert checks.check_verify(report, model, m4_exact) == []
