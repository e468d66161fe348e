"""Outside-in layer tracing for the benchmark.

The tracer rebinds the module-level names that ``hyperspectra.cli`` and
``hyperspectra.hypergraph`` look up at call time, so every call the CLI makes
into a layer is timed without touching the library.  Spans (name, start,
end, parent, run id) stay in memory and are written out once at the end.

Self time of a span is its duration minus the time covered by its child
spans.  The CLI runs with one worker, so child spans never overlap and
that coverage is their summed duration.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import tracemalloc

MIB = 1024.0 * 1024.0

# (module, name, span name, whether tracemalloc peaks are recorded)
TARGETS = (
    ("cli", "sample_hypergraph", "hypergraph.sample_hypergraph", True),
    ("hypergraph", "Hypergraph", "hypergraph.Hypergraph", False),
    ("cli", "adjacency", "hypergraph.adjacency", True),
    ("cli", "center_scale", "hypergraph.center_scale", False),
    ("cli", "write_hypergraph_text", "hypergraph.write_hypergraph_text", False),
    ("cli", "read_hypergraph_text", "hypergraph.read_hypergraph_text", True),
    ("cli", "sample_surrogate", "gaussian.sample_surrogate", False),
    ("cli", "eigenvalues", "spectral.eigenvalues", True),
    ("cli", "esd", "spectral.esd", False),
    ("cli", "average_esd", "spectral.average_esd", False),
    ("cli", "ks_distance", "spectral.ks_distance", False),
    ("cli", "moment", "spectral.moment", False),
    ("cli", "exact_eesd_moments", "oracle.exact_eesd_moments", False),
    ("cli", "exact_covariances", "oracle.exact_covariances", False),
    ("cli", "dumps", "cli.dumps", False),
)

ROOT = "cli.main"
AGGREGATE = ("spectral.esd", "spectral.average_esd", "spectral.ks_distance", "spectral.moment")
COUNTS = ("hypergraph.edges", "hypergraph.text_mib", "spectral.eigenvalues.gflop_computed", "oracle.configs")

# Every per-layer metric, in the order the benchmark prints them.
LAYER_METRICS = (
    ("hypergraph.sample_hypergraph.s", "s"),
    ("hypergraph.sample_hypergraph.calls", "count"),
    ("hypergraph.edges", "count"),
    ("hypergraph.sample_hypergraph.peak_mib", "MiB"),
    ("hypergraph.Hypergraph.s", "s"),
    ("hypergraph.adjacency.s", "s"),
    ("hypergraph.adjacency.peak_mib", "MiB"),
    ("hypergraph.center_scale.s", "s"),
    ("hypergraph.write_hypergraph_text.s", "s"),
    ("hypergraph.read_hypergraph_text.s", "s"),
    ("hypergraph.read_hypergraph_text.peak_mib", "MiB"),
    ("hypergraph.text_mib", "MiB"),
    ("gaussian.sample_surrogate.s", "s"),
    ("spectral.eigenvalues.s", "s"),
    ("spectral.eigenvalues.calls", "count"),
    ("spectral.eigenvalues.gflop_computed", "GFLOP"),
    ("spectral.eigenvalues.peak_mib", "MiB"),
    ("spectral.aggregate.s", "s"),
    ("oracle.exact_eesd_moments.s", "s"),
    ("oracle.exact_covariances.s", "s"),
    ("oracle.configs", "count"),
    ("cli.self_s", "s"),
    ("cli.dumps.s", "s"),
    ("cli.trials", "count"),
    ("cli.traced_wall_s", "s"),
)


def _oracle_configs(name: str, args) -> int:
    params = args[0]
    sizes = [math.comb(params.n, r) for r in params.r]
    if name == "oracle.exact_eesd_moments":
        return 2 ** sum(sizes)
    return sum(2**m for m in sizes)


class Tracer:
    """Records spans and counts for calls made through the rebound names.

    ``run_id`` tags the spans of the current round.  While ``memory`` is
    true, tracemalloc runs inside each watched span and records the peak of
    what the span allocates; such rounds are left out of the timings,
    because tracemalloc slows allocation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.memory = False
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float) -> None:
        if not self.memory:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def span(self, name: str, fn, watch_peak: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.run_id]
            self.spans.append(record)
            self.stack.append(index)
            peak = watch_peak and self.memory and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
                if peak:
                    used = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), used)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "hypergraph.sample_hypergraph":
            self._count("hypergraph.edges", sum(result.edge_counts))
        elif name == "hypergraph.write_hypergraph_text":
            self._count("hypergraph.text_mib", os.path.getsize(args[1]) / MIB)
        elif name == "spectral.eigenvalues":
            n = args[0].shape[0]
            self._count("spectral.eigenvalues.gflop_computed", 4.0 / 3.0 * n**3 / 1e9)
        elif name.startswith("oracle."):
            self._count("oracle.configs", _oracle_configs(name, args))

    def install(self, modules: dict) -> None:
        for mod_key, attr, name, watch_peak in TARGETS:
            module = modules[mod_key]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, watch_peak))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id})
                    + "\n"
                )

    def layer_metrics(self, rounds: int, trials_per_round: int) -> dict[str, float]:
        """Per-layer figures per round, from the timed rounds' spans."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, run_id in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        wall = 0.0
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            if run_id == "memory":
                continue
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                wall += end - start
        per = 1.0 / rounds
        special = {
            "spectral.aggregate.s": sum(self_s.get(k, 0.0) for k in AGGREGATE) * per,
            "cli.self_s": self_s.get(ROOT, 0.0) * per,
            "cli.trials": trials_per_round,
            "cli.traced_wall_s": wall * per,
        }
        out = {}
        for key, _ in LAYER_METRICS:
            span, _, kind = key.rpartition(".")
            if key in special:
                out[key] = special[key]
            elif key in COUNTS:
                out[key] = self.counts.get(key, 0.0) * per
            elif kind == "peak_mib":
                out[key] = self.peaks.get(span, 0.0)
            elif kind == "calls":
                out[key] = calls.get(span, 0) * per
            else:
                out[key] = self_s.get(span, 0.0) * per
        return out
