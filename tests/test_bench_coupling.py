"""The benchmark's layer tracer rebinds names on ``hyperspectra.cli`` and
``hyperspectra.hypergraph``; every name it targets must exist and be callable,
or a traced benchmark run breaks."""

import importlib.util
from pathlib import Path

import hyperspectra.cli
import hyperspectra.hypergraph

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def test_layertrace_targets_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    modules = {"cli": hyperspectra.cli, "hypergraph": hyperspectra.hypergraph}
    assert layertrace.TARGETS
    for module, name, _span, _peak in layertrace.TARGETS:
        assert callable(getattr(modules[module], name, None)), f"{module}.{name}"
