"""The benchmark's layer tracer rebinds names on ``hyperspectra.cli`` and
``hyperspectra.hypergraph``; every name it targets must exist and be callable,
and a traced CLI run must still work and be counted, or a traced benchmark
run breaks."""

import importlib.util
from pathlib import Path

import hyperspectra.cli
import hyperspectra.hypergraph

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
MODULES = {"cli": hyperspectra.cli, "hypergraph": hyperspectra.hypergraph}


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layertrace_targets_resolve():
    layertrace = load_layertrace()
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
    tracer = load_layertrace().Tracer()
    model = ["--n", "8", "--r", "2,3", "--p", "0.5,0.2", "--seed", "3"]
    model += ["--out", str(tmp_path), "--quiet"]
    tracer.install(MODULES)
    try:
        assert hyperspectra.cli.main(["sample", *model]) == 0
        path = tmp_path / "hypergraph.txt"
        assert hyperspectra.cli.main(["spectrum", str(path), *model]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    edges = file_edge_count(path)
    assert edges > 0
    assert tracer.counts["hypergraph.edges"] == edges
    assert tracer.layer_metrics(1, 1)["hypergraph.adjacency.s"] > 0
