"""hyperspectra benchmark: four CLI workloads, each loading a different layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds of the workload's CLI calls until the next round
would end after ``--seconds``.  Round k uses CLI seed ``seed * 1000 + k``.
Afterwards every round's outputs are checked against values computed in
``checks.py``, apart from the program.

``--trace 0`` runs each round in a fresh interpreter (``worker.py``) and
reports the medians over rounds of ``wall_s`` (first call into ``main`` to
the last report written), ``setup_s`` (launch through ``import
hyperspectra.cli`` and model construction) and ``peak_rss_mib`` (the round
process's ``ru_maxrss``).  ``--trace 1`` runs the rounds in this process
with the library names the CLI calls rebound (``layertrace.py``) and reports
per-layer figures per round.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy is first imported here or in a round process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layertrace import LAYER_METRICS, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Round, Workload, import_cli, run_round  # noqa: E402

OUT = ROOT / ".perfbench_out"


def repeat(seconds: float, one_round) -> list:
    """Call ``one_round(k)`` for k = 0, 1, ... until the next call, if it
    took as long as the last, would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one_round(len(results)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def spawn_round(w: Workload, seed: int, out_dir: Path) -> tuple[Round, float, float]:
    """One round in a fresh interpreter: (round, set-up seconds, peak RSS MiB)."""
    argv = [sys.executable, str(HERE / "worker.py"), w.to_json(), str(seed), str(out_dir)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        line = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"round process exited {code} after printing {ready + line!r}")
    d = json.loads(line)
    return Round(out_dir, d["wall"], d["attempted"], d["failed"]), setup_s, d["peak_rss_mib"]


def timed_rounds(w: Workload, seed: int, seconds: float, rounds_dir: Path) -> tuple[list[Round], dict]:
    results = repeat(seconds, lambda k: spawn_round(w, seed * 1000 + k, rounds_dir / f"round{k:03d}"))
    metrics = {
        "wall_s": {"value": statistics.median(r.wall for r, _, _ in results), "unit": "s"},
        "setup_s": {"value": statistics.median(s for _, s, _ in results), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(m for _, _, m in results), "unit": "MiB"},
    }
    return [r for r, _, _ in results], metrics


def traced_rounds(w: Workload, seed: int, seconds: float, rounds_dir: Path) -> tuple[list[Round], dict]:
    cli, hypergraph = import_cli()
    tracer = Tracer()
    tracer.install({"cli": cli, "hypergraph": hypergraph})
    main = tracer.span("cli.main", cli.main)
    try:
        def one(k: int) -> Round:
            tracer.run_id = k
            return run_round(main, w, seed * 1000 + k, rounds_dir / f"round{k:03d}")

        rounds = repeat(seconds, one)
        # Memory peaks come from one extra round, left out of the timings.
        tracer.memory = True
        tracer.run_id = "memory"
        memory = run_round(main, w, seed * 1000 + len(rounds), rounds_dir / "memory")
    finally:
        tracer.uninstall()
    tracer.write(str(rounds_dir.parent / "spans.jsonl"))
    values = tracer.layer_metrics(len(rounds), w.trials or 0)
    return rounds + [memory], {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def check_round(w: Workload, out_dir: Path, m4_exact: float | None) -> list[str]:
    if w.command in ("montecarlo", "gaussian"):
        with open(out_dir / f"{w.command}.json", encoding="utf-8") as fh:
            report = json.load(fh)
        eigs = [checks.read_eigenvalues_csv(p) for p in checks.trial_csvs(str(out_dir))]
        engine = "bernoulli" if w.command == "montecarlo" else "gaussian-surrogate"
        return checks.check_montecarlo(report, eigs, w.model, engine)
    if w.command == "verify":
        with open(out_dir / "verify.out", encoding="utf-8") as fh:
            report = json.load(fh)
        return checks.check_verify(report, w.model, m4_exact)
    bad, parsed = checks.check_hypergraph_file(str(out_dir / "hypergraph.txt"), w.model)
    eigs = checks.read_eigenvalues_csv(str(out_dir / "eigenvalues.csv"))
    return bad + checks.check_spectrum(eigs, parsed, w.model)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "blas": blas, "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": sys.version.split()[0]}


def run(w: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import_cli()  # fail before any round when the checkout has no program
    shutil.rmtree(out, ignore_errors=True)
    rounds_dir = out / "rounds"
    rounds_dir.mkdir(parents=True)
    m4_exact = checks.exact_m4(w.n, w.r, w.p) if w.command == "verify" else None

    rounds, metrics = (traced_rounds if trace else timed_rounds)(w, seed, seconds, rounds_dir)

    bad = []
    for rnd in rounds:
        if rnd.failed == 0:
            bad += [f"{rnd.out_dir.name}: {msg}" for msg in check_round(w, rnd.out_dir, m4_exact)]
    for msg in bad:
        print(f"check failed: {msg}", file=sys.stderr)
    shutil.rmtree(rounds_dir)
    result = {
        "correct": not bad,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        timed = [r.wall for r in rounds if r.out_dir.name != "memory"]
        json.dump({"workload": w.name, "seed": seed, "round_walls": timed,
                   "machine": machine(), **result}, fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40 or not args.seconds > 0:
        parser.error("need 0 <= seed < 2^40 and seconds > 0")

    w = WORKLOADS[args.workload]
    result = run(w, args.seed, args.seconds, bool(args.trace), OUT / f"{w.name}-trace{args.trace}")
    for name, metric in result["metrics"].items():
        print(f"{w.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{w.name} attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
