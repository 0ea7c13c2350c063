#!/usr/bin/env python3
"""Self-test of the benchmark harness on small N=8 sets.

    python3 perfbench/selftest.py

Checks the output schema against BENCHMARK.json, that two invocations give
identical digests, that a traced run leaves every public function as it
found it, that a wrong recorded digest fails the run, and that the harness
refuses to run without the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_selftest"
WORKLOADS = ("construct-verify", "operators", "correlation-adjoint")


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1",
           "--size", "small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests_of(proc: subprocess.CompletedProcess) -> dict:
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("digests ")]
    return json.loads(line[len("digests "):])


def binding(module: str, attr: str):
    """The object bound to attr in module, or to a "Class.method" attr on the class."""
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = vars(owner)[cls]
    return vars(owner)[attr]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        SCRATCH.mkdir(exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def check_schema(self, result: dict, names: dict[str, str]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, entry in result["metrics"].items():
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertIsInstance(entry["value"], (int, float))
            self.assertEqual(entry["unit"], names[name], name)

    def test_end_to_end_schema_and_repeatable_digests(self):
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = bench("--workload", workload), bench("--workload", workload)
                self.assertEqual(first.returncode, 0, first.stdout + first.stderr)
                self.assertEqual(second.returncode, 0, second.stdout + second.stderr)
                self.check_schema(result_of(first), names)
                for entry in result_of(first)["metrics"].values():
                    self.assertGreater(entry["value"], 0)
                self.assertEqual(digests_of(first), digests_of(second))

    def test_per_layer_schema(self):
        names = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.check_schema(result_of(proc), names)
                self.assertIn("tracing overhead", proc.stdout)

    def test_traced_run_restores_public_functions(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import cantormax
        import run
        import spans

        before = {(mod, attr): binding(mod, attr) for mod, attr, *_ in spans.LAYERS}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.main(["--workload", "correlation-adjoint", "--seed", "1", "--seconds", "1",
                             "--size", "small", "--trace", "1"])
        self.assertEqual(code, 0, out.getvalue())
        self.assertEqual(spans.patched_names(), [])
        for (mod, attr), original in before.items():
            self.assertIs(binding(mod, attr), original, f"{mod}.{attr}")
        self.assertIs(cantormax.product_integral, sys.modules["cantormax.stepfn"].product_integral)

    def test_wrong_recorded_digest_fails(self):
        good = bench("--workload", "operators")
        self.assertEqual(good.returncode, 0, good.stdout + good.stderr)
        recorded = digests_of(good)
        recorded["maximal@0"] = "0" * 64
        path = SCRATCH / "digests.json"
        path.write_text(json.dumps({"small": {"operators": {"1": recorded}}}))
        bad = bench("--workload", "operators", "--digests", str(path))
        self.assertEqual(bad.returncode, 1, bad.stdout + bad.stderr)
        result = result_of(bad)
        self.assertIs(result["correct"], False)
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("maximal@0", bad.stdout)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "operators", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
