"""tools/cli_digest.py: every subcommand's outputs, rerun on this checkout,
digest the same, and the refusals exit with their documented codes."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest() -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py"), str(ROOT)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return proc.stdout.splitlines()


def test_cli_digest_is_rerun_deterministic():
    first = digest()
    assert first == digest()
    paths = dict(reversed(line.split("  ", 1)) for line in first)
    commands = {path.split("/")[0].split("_")[0] for path in paths}
    assert {"analyze", "sample", "montecarlo", "gaussian", "verify", "refuse"} <= commands
    assert "sample_spectrum/out/eigenvalues.csv" in paths

    def exits(case):
        return [sha for path, sha in paths.items() if path.startswith(f"{case}/") and path.endswith(".exit")]

    code = {hashlib.sha256(b"%d\n" % c).hexdigest(): c for c in range(6)}
    assert [code[sha] for sha in exits("refuse_dense")] == [4, 4, 4]
    assert [code[sha] for sha in exits("refuse_budget")] == [4]
    assert [code[sha] for sha in exits("sample_spectrum")] == [0, 0, 2]
    assert [code[sha] for sha in exits("spectrum_reader")] == [0, 2]
