#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

They build the benchmark through run.py (the first run compiles for a
minute or two) and drive it, mostly at minimal size: every workload runs and
produces exactly the metrics BENCHMARK.json lists, at the default and the
held-out seed; the committed full-size digests still match; a paper-metric
digest mismatch is a failure; bad flags exit nonzero with one typed error
line; the traced run's ledger reconciles, and fails when a layer is left out;
a directory without the solver sources fails fast.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

ROOT = HERE.parent
DIGESTS = HERE / "digests"
HELD_OUT_SEED = 7919  # README.md, "Correctness"
LEDGER_TOLERANCE_PCT = 5.0  # perfbench::kLedgerTolerance


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.scratch = tempfile.TemporaryDirectory(dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        cls.scratch.cleanup()

    def bench(self, *args, digest_dir=DIGESTS):
        cmd = [str(self.binary), *args]
        if digest_dir is not None:
            cmd += ["--digest-dir", str(digest_dir)]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=170)

    def smoke(self, workload, trace, *extra, **kwargs):
        return self.bench("--workload", workload, "--size", "smoke", "--seconds", "1",
                          "--trace", str(trace), *extra, **kwargs)

    def result(self, proc):
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, f"no output; stderr:\n{proc.stderr}")
        return json.loads(lines[-1])

    def assert_clean(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = self.result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stderr)
        self.assertEqual(res["failed"], 0, proc.stderr)
        self.assertGreaterEqual(res["attempted"], 1)
        listed = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in listed])
        for m in listed:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        return res

    def test_smoke_every_workload(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res = self.assert_clean(self.smoke(workload, trace), trace)
                    if not trace:
                        for name, metric in res["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_held_out_seed(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.assert_clean(
                        self.smoke(workload, trace, "--seed", str(HELD_OUT_SEED)), trace)

    def test_full_size_digests_match(self):
        # Regenerate every trial's digest at the default seed and compare
        # with the committed reference; a timed run checks only its prefix.
        for workload in ("sat3-learning", "coloring-db"):
            with self.subTest(workload=workload):
                out = Path(self.scratch.name) / f"{workload}.txt"
                proc = self.bench("--workload", workload, "--write-digests", str(out),
                                  digest_dir=None)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(out.read_text(), (DIGESTS / f"{workload}.txt").read_text())
                timed = self.bench("--workload", workload, "--seconds", "1")
                self.assert_clean(timed, 0)

    def test_digest_mismatch_is_a_failure(self):
        tampered = Path(self.scratch.name) / "tampered"
        shutil.copytree(DIGESTS, tampered, dirs_exist_ok=True)
        path = tampered / "sat3-learning.smoke.txt"
        lines = path.read_text().splitlines()
        first = next(i for i, l in enumerate(lines) if l and not l.startswith("#"))
        fields = lines[first].split()
        fields[5] = str(int(fields[5]) + 1)  # the trial's maxcck
        lines[first] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        proc = self.smoke("sat3-learning", 0, digest_dir=tampered)
        self.assertEqual(proc.returncode, 1)
        res = self.result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("committed digest", proc.stderr)

    def test_bad_flags_exit_nonzero_with_one_line(self):
        bad = [
            ["--workload", "sat3-learning", "--trails", "2"],
            ["--workload", "nope"],
            ["--workload", "sat3-learning", "--seed", "-1"],
            ["--workload", "sat3-learning", "--seed", "12x"],
            ["--workload", "sat3-learning", "--seed", str(2**63)],
            ["--workload", "sat3-learning", "--seconds", "0"],
            ["--workload", "sat3-learning", "--seconds", "61"],
            ["--workload", "sat3-learning", "--trace", "2"],
            ["--workload", "sat3-learning", "--size", "huge"],
            ["--workload"],
            ["--seed", "3"],
        ]
        for args in bad:
            for cmd in ([str(self.binary), *args], [sys.executable, str(HERE / "run.py"), *args]):
                with self.subTest(cmd=cmd[1:]):
                    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
                    self.assertEqual(proc.returncode, 2)
                    self.assertEqual(proc.stdout, "")
                    self.assertEqual(len(proc.stderr.strip().splitlines()), 1, proc.stderr)
                    self.assertTrue(proc.stderr.startswith("error: "), proc.stderr)

    def test_ledger_reconciles(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = self.assert_clean(self.smoke(workload, 1), 1)
                unattributed = res["metrics"]["ledger.unattributed_pct"]["value"]
                self.assertLessEqual(abs(unattributed), LEDGER_TOLERANCE_PCT)

    def test_ledger_missing_a_layer_fails(self):
        for workload, layer in (("sat3-learning", "awc.self"),
                                ("coloring-db", "db.self"),
                                ("serve-inproc", "net.coord.self")):
            with self.subTest(workload=workload):
                proc = self.smoke(workload, 1, "--ledger-drop", layer)
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(self.result(proc)["correct"])
                self.assertIn("does not reconcile", proc.stderr)

    def test_run_all(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                               "--size", "smoke", "--seconds", "1"],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = self.result(proc)
        self.assertTrue(res["correct"])
        expected = {f"{w}/{m['name']}" for w in run.WORKLOADS for m in spec()["end_to_end"]}
        self.assertEqual(set(res["metrics"]), expected)

    def test_checkout_without_sources_fails_fast(self):
        bare = Path(self.scratch.name) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sat3-learning"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertLess(time.monotonic() - start, 180)


if __name__ == "__main__":
    unittest.main()
