"""One untraced round in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD_JSON SEED OUT_DIR

Prints ``ready`` once ``hyperspectra.cli`` is imported and the workload's
config and model are built, so that the caller can time set-up from launch
to that line.  Then runs the round and prints one JSON line: its wall time,
operations attempted and failed, and this process's peak RSS.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import Workload, import_cli, run_round  # noqa: E402


def main() -> None:
    w = Workload.from_json(sys.argv[1])
    cli, _ = import_cli()
    from hyperspectra.theory import ModelParams

    cfg = cli.resolve_config(None, {"n": w.n, "r": list(w.r), "p": list(w.p)})
    ModelParams.of(cfg["n"], cfg["r"], cfg["p"])
    print("ready", flush=True)
    rnd = run_round(cli.main, w, int(sys.argv[2]), Path(sys.argv[3]))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"wall": rnd.wall, "attempted": rnd.attempted, "failed": rnd.failed,
                      "peak_rss_mib": peak_rss_mib}), flush=True)


if __name__ == "__main__":
    main()
