"""Fast self-test of the benchmark: every workload at a toy size through the
same runner (run.py) and checks, and each check shown to reject a wrong output.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layertrace import LAYER_METRICS  # noqa: E402

TOY = {
    "mixture_montecarlo": dict(n=400, trials=2),
    "verify_tiny": dict(n=4, trials=300),
    "surrogate_dense": dict(n=400, r=(120,), trials=2),
    "file_roundtrip": dict(n=200, p=(2e-3,)),
}


def toy(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TOY[name])


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout's benchmark output."""
    run.OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-")


class ToyRuns(unittest.TestCase):
    """Both run modes of every workload finish, pass their checks and
    report every metric BENCHMARK.json names."""

    def test_every_workload(self) -> None:
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, dict(LAYER_METRICS))
        with scratch_dir() as tmp:
            for name in run.WORKLOADS:
                for trace, wanted in ((False, end_to_end), (True, per_layer)):
                    with self.subTest(workload=name, trace=trace):
                        result = run.run(toy(name), 3, 0.01, trace, Path(tmp) / f"{name}-{trace}")
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, wanted)
                        if not trace:
                            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


class ChecksRejectWrongOutputs(unittest.TestCase):
    """One toy round per workload, then each output edited to be wrong."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = scratch_dir()
        cli, _ = run.import_cli()
        cls.rounds = {}
        for name in run.WORKLOADS:
            w = toy(name)
            rnd = run.run_round(cli.main, w, 5, Path(cls.tmp.name) / name)
            assert rnd.failed == 0, name
            cls.rounds[name] = rnd.out_dir
        v = toy("verify_tiny")
        cls.m4 = run.checks.exact_m4(v.n, v.r, v.p)

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def failures(self, name: str, edit) -> list[str]:
        """Check a copy of the workload's round after ``edit(copy_dir)``."""
        src = self.rounds[name]
        dst = src.with_name(src.name + "-edited")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        if edit is not None:
            edit(dst)
        return run.check_round(toy(name), dst, self.m4)

    def assertRejects(self, name: str, edit, needle: str) -> None:
        self.assertEqual(self.failures(name, None), [], "unedited output must pass")
        bad = self.failures(name, edit)
        self.assertTrue(any(needle in msg for msg in bad), f"expected {needle!r} among {bad}")

    # -- montecarlo / gaussian reports

    def edit_report(self, path: Path, key: str, fn) -> None:
        report = json.loads(path.read_text())
        report[key] = fn(report[key])
        path.write_text(json.dumps(report))

    def test_perturbed_predicted_variance(self) -> None:
        for name, stem in (("mixture_montecarlo", "montecarlo"), ("surrogate_dense", "gaussian")):
            self.assertRejects(
                name, lambda d: self.edit_report(d / f"{stem}.json", "s2_pred", lambda v: v * 1.001), "s2_pred"
            )

    def test_perturbed_ks_distance(self) -> None:
        self.assertRejects(
            "mixture_montecarlo",
            lambda d: self.edit_report(d / "montecarlo.json", "ks_distance", lambda v: v + 1e-4),
            "ks_distance",
        )

    def test_m2_outside_monte_carlo_tolerance(self) -> None:
        self.assertRejects(
            "surrogate_dense",
            lambda d: self.edit_report(d / "gaussian.json", "m2", lambda v: v + 5.0),
            "not within",
        )

    def test_eigenvalue_list_of_wrong_length(self) -> None:
        def drop_last(d: Path) -> None:
            path = sorted(d.glob("eigenvalues_trial*.csv"))[0]
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        self.assertRejects("mixture_montecarlo", drop_last, "eigenvalues, expected")

    def test_missing_trial(self) -> None:
        self.assertRejects(
            "mixture_montecarlo", lambda d: sorted(d.glob("eigenvalues_trial*.csv"))[-1].unlink(), "trial CSVs"
        )

    # -- verify report

    def edit_check(self, d: Path, check: str, field: str, fn) -> None:
        path = d / "verify.out"
        report = json.loads(path.read_text())
        for c in report["checks"]:
            if c["name"] == check:
                c[field] = fn(c[field])
        path.write_text(json.dumps(report))

    def test_verify_not_passed(self) -> None:
        def fail(d: Path) -> None:
            path = d / "verify.out"
            path.write_text(path.read_text().replace('"passed": true', '"passed": false'))

        self.assertRejects("verify_tiny", fail, "did not report passed")

    def test_verify_wrong_oracle_values(self) -> None:
        for check, field in (
            ("oracle_cov_shared_vertex", "got"),
            ("oracle_cov_disjoint", "got"),
            ("montecarlo_m4_vs_oracle", "expected"),
            ("montecarlo_m2_vs_oracle", "got"),
        ):
            with self.subTest(check=check):
                self.assertRejects("verify_tiny", lambda d: self.edit_check(d, check, field, lambda v: v + 0.3), check)

    # -- written hypergraph file and spectrum output

    def edit_edges(self, d: Path, fn) -> None:
        path = d / "hypergraph.txt"
        lines = path.read_text().splitlines()
        r, m = map(int, lines[1].split())
        rows = fn(lines[2 : 2 + m])
        path.write_text("\n".join([lines[0], f"{r} {len(rows)}", *rows]) + "\n")

    def test_duplicated_edge_row(self) -> None:
        self.assertRejects("file_roundtrip", lambda d: self.edit_edges(d, lambda rows: rows + rows[:1]), "duplicate")

    def test_descending_edge_row(self) -> None:
        self.assertRejects(
            "file_roundtrip",
            lambda d: self.edit_edges(d, lambda rows: [" ".join(reversed(rows[0].split()))] + rows[1:]),
            "not strictly ascending",
        )

    def test_vertex_out_of_range(self) -> None:
        self.assertRejects(
            "file_roundtrip",
            lambda d: self.edit_edges(d, lambda rows: rows[:-1] + [rows[-1].rsplit(" ", 1)[0] + " 201"]),
            "outside",
        )

    def test_edge_count_far_from_expectation(self) -> None:
        self.assertRejects(
            "file_roundtrip", lambda d: self.edit_edges(d, lambda rows: rows[: len(rows) // 2]), "expected"
        )

    def test_spectrum_wrong_length(self) -> None:
        def drop_last(d: Path) -> None:
            path = d / "eigenvalues.csv"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

        self.assertRejects("file_roundtrip", drop_last, "eigenvalues, expected")

    def test_spectrum_not_the_files_matrix(self) -> None:
        def scale(d: Path) -> None:
            path = d / "eigenvalues.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0]] + [repr(float(v) * 1.01) for v in lines[1:]]) + "\n")

        self.assertRejects("file_roundtrip", scale, "||H||_F^2")

    def test_spectrum_nonzero_trace(self) -> None:
        def shift(d: Path) -> None:
            path = d / "eigenvalues.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join([lines[0]] + [repr(float(v) + 0.01) for v in lines[1:]]) + "\n")

        self.assertRejects("file_roundtrip", shift, "sum of eigenvalues")


if __name__ == "__main__":
    unittest.main()
