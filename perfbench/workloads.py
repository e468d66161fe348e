"""The benchmark's workloads and the round that runs one of them.

A round is the workload's CLI calls, made in-process through
``hyperspectra.cli.main`` with each call's standard output sent to a file
in the round's directory.  This module imports no numpy itself, so a fresh
round process spends its set-up time on the program's own imports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    """One CLI experiment.  ``command`` is a CLI subcommand, or ``roundtrip``
    for ``sample`` followed by ``spectrum`` on the written file."""

    name: str
    command: str
    n: int
    r: tuple[int, ...]
    p: tuple[float, ...]
    trials: int | None = None

    @property
    def model(self) -> dict:
        return {"n": self.n, "r": list(self.r), "p": list(self.p), "trials": self.trials}

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        d = json.loads(text)
        return cls(**{**d, "r": tuple(d["r"]), "p": tuple(d["p"])})


# Each workload loads a different layer; README.md gives the reasons.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixture_montecarlo", "montecarlo", 1000, (2, 3), (0.1, 0.005), trials=3),
        Workload("verify_tiny", "verify", 5, (2, 3), (0.5, 0.5), trials=10000),
        Workload("surrogate_dense", "gaussian", 2000, (600,), (0.3,), trials=3),
        Workload("file_roundtrip", "roundtrip", 1000, (4,), (2e-5,)),
    )
}


def operations(w: Workload, seed: int, out_dir: Path) -> list[tuple[list[str], str]]:
    """The CLI argument lists of one round, each with its stdout file name."""
    model = [
        "--n", str(w.n),
        "--r", ",".join(map(str, w.r)),
        "--p", ",".join(map(repr, w.p)),
        "--seed", str(seed),
        "--out", str(out_dir),
        "--quiet",
    ]
    if w.command == "roundtrip":
        path = str(out_dir / "hypergraph.txt")
        return [(["sample", *model], "sample.out"), (["spectrum", path, *model], "spectrum.out")]
    extra = ["--trials", str(w.trials)]
    if w.command != "verify":
        extra += ["--workers", "1", "--emit", "json,csv"]
    return [([w.command, *model, *extra], f"{w.command}.out")]


@dataclass
class Round:
    out_dir: Path
    wall: float
    attempted: int
    failed: int


def run_round(main, w: Workload, seed: int, out_dir: Path) -> Round:
    """One round of CLI calls, timed from the first call into ``main`` to the
    return of the last; a call fails when it raises or returns non-zero."""
    ops = operations(w, seed, out_dir)
    out_dir.mkdir(parents=True)
    gc.collect()
    failed = 0
    start = time.perf_counter()
    for argv, stdout_name in ops:
        with open(out_dir / stdout_name, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                code = main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                code = -1
        if code != 0:
            print(f"hyperspectra {' '.join(argv)} exited {code}", file=sys.stderr)
            failed += 1
    return Round(out_dir, time.perf_counter() - start, len(ops), failed)


def import_cli():
    """Import the CLI from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hyperspectra" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'hyperspectra'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hyperspectra
    import hyperspectra.cli
    import hyperspectra.hypergraph

    if Path(hyperspectra.__file__).resolve().parent != SRC / "hyperspectra":
        sys.exit(f"error: imported hyperspectra from {hyperspectra.__file__}, not {SRC}")
    return hyperspectra.cli, hyperspectra.hypergraph
