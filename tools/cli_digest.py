"""Digest every output of a fixed list of small CLI calls.

    python tools/cli_digest.py CHECKOUT

Each case writes its input files, then makes its calls in order, each as a
``python -m hyperspectra.cli`` subprocess in the case's own temporary
directory, with ``PYTHONPATH=CHECKOUT/src`` and ``OPENBLAS_NUM_THREADS=1``.
The script prints one ``sha256 path`` line for each call's stdout, stderr
and exit code and for every file in the case's directory, paths relative to
the case.  Two checkouts give the same outputs on these calls exactly when
their digests do, so comparing them is one ``diff``.  The whole list runs in
a few seconds; it needs the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SMALL = ["--n", "40", "--r", "2,3", "--p", "0.3,0.02"]
TINY = ["verify", "--n", "4", "--r", "2,3", "--p", "0.5,0.5", "--trials", "2000"]
SURROGATE = ["--n", "300", "--r", "90", "--p", "0.3", "--trials", "2", "--seed", "1"]
FILE_MODEL = ["--n", "200", "--r", "3", "--p", "0.01"]

# case name -> (input files, calls)
CASES: dict[str, tuple[dict[str, str], list[list[str]]]] = {
    "analyze": ({}, [["analyze", "--n", "500", "--r", "2,3", "--p", "0.05,0.001", "--out", "out"]]),
    "analyze_csv": ({}, [["analyze", *SMALL, "--format", "csv", "--out", "out"]]),
    "sample_spectrum": ({}, [
        ["sample", *FILE_MODEL, "--seed", "7", "--out", "out"],
        ["spectrum", "out/hypergraph.txt", *FILE_MODEL, "--out", "out"],
        # a file that does not match the model
        ["spectrum", "out/hypergraph.txt", "--n", "201", "--r", "3", "--p", "0.01"],
    ]),
    # the reader on text from outside the sampler: leading zeros and signs
    # are accepted; an id that int32 would wrap to 2^31 - 1 is refused
    "spectrum_reader": ({
        "padded.txt": "+0006 1\n3 +04\n+1 02 003\n0001 +2 4\n1 3 +0005\n02 4 6\n",
        "wrap.txt": "3000000000 1\n2 1\n2147483649 6442450944\n",
    }, [
        ["spectrum", "padded.txt", "--n", "6", "--r", "3", "--p", "0.2", "--out", "out"],
        ["spectrum", "wrap.txt", "--n", "3000000000", "--r", "2", "--p", "1e-13"],
    ]),
    "sample_cwd": ({}, [
        ["sample", *SMALL, "--seed", "2"],
        ["spectrum", "hypergraph.txt", *SMALL],
    ]),
    "montecarlo_emit": ({}, [
        ["montecarlo", *SMALL, "--trials", "3", "--seed", "9", "--bins", "16",
         "--out", "out", "--emit", "json,csv,svg"],
    ]),
    "montecarlo_csv": ({}, [
        ["montecarlo", *SMALL, "--trials", "2", "--format", "csv", "--out", "out", "--emit", "csv"],
    ]),
    "montecarlo_config": ({"run.json": '{"emit": ["svg"], "out_dir": "out", "bins": 8}\n'}, [
        ["montecarlo", "--config", "run.json", *SMALL, "--trials", "2"],
    ]),
    "montecarlo_workers": ({}, [
        ["montecarlo", "--n", "200", "--r", "2,3", "--p", "0.1,0.005", "--trials", "3",
         "--seed", "4", "--workers", "2", "--out", "out", "--emit", "json,svg"],
    ]),
    # the r = 2 class expects about 150k edges, so its walk is capped at one
    # piece size and the r = 3 class starts where that walk stopped
    "montecarlo_capped": ({}, [
        ["montecarlo", "--n", "1000", "--r", "2,3", "--p", "0.3,0.001", "--trials", "1",
         "--seed", "5", "--out", "out", "--emit", "json,csv"],
    ]),
    "montecarlo_auto": ({}, [["montecarlo", *SURROGATE, "--max-edges", "1000"]]),
    "gaussian": ({}, [
        ["gaussian", *SURROGATE, "--workers", "2", "--out", "out", "--emit", "json,csv,svg"],
    ]),
    "gaussian_csv": ({}, [["gaussian", *SURROGATE, "--format", "csv", "--out", "out"]]),
    "verify": ({}, [[*TINY, "--out", "out"]]),
    "verify_csv": ({}, [[*TINY, "--format", "csv", "--quiet", "--out", "out"]]),
    "refuse_verify_trials": ({}, [[*TINY[:-1], "1", "--out", "out"]]),
    "refuse_budget": ({}, [["sample", "--n", "100000", "--r", "5", "--p", "0.5"]]),
    # dense arrays beyond the address space, refused before any allocation
    "refuse_dense": ({"big.txt": "1100000000 1\n2 0\n"}, [
        ["montecarlo", "--n", "2147483648", "--r", "2", "--p", "1e-13", "--trials", "1"],
        ["gaussian", "--n", "3037000500", "--r", "2", "--p", "0.5", "--trials", "1"],
        ["spectrum", "big.txt", "--n", "1100000000", "--r", "2", "--p", "1e-13"],
    ]),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(checkout: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    lines = []
    for name, (files, calls) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            case_dir = Path(tmp)
            for file_name, text in files.items():
                (case_dir / file_name).write_text(text, encoding="utf-8")
            for i, argv in enumerate(calls, 1):
                proc = subprocess.run(
                    [sys.executable, "-m", "hyperspectra.cli", *argv],
                    cwd=case_dir, env=env, capture_output=True, timeout=300,
                )
                for part, data in (
                    ("stdout", proc.stdout),
                    ("stderr", proc.stderr),
                    ("exit", b"%d\n" % proc.returncode),
                ):
                    lines.append(f"{sha256(data)}  {name}/call{i}.{part}")
            for path in sorted(p for p in case_dir.rglob("*") if p.is_file()):
                lines.append(f"{sha256(path.read_bytes())}  {name}/{path.relative_to(case_dir).as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_digest.py CHECKOUT", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "src" / "hyperspectra" / "cli.py").is_file():
        print(f"error: {checkout} has no src/hyperspectra/cli.py", file=sys.stderr)
        return 2
    print("\n".join(digest(checkout)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
