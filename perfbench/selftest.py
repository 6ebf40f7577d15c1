"""Self-test of the benchmark at a tiny size.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, with its unit,
for every workload and both trace modes; that a wrong verdict or an
exception from an entry point is counted as failed instead of crashing the
run; and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small members of the same families, so every layer still runs.
TINY = {
    "imprimitive_pow2": ["cyclic(16)", "dihedral(16)", "wreath(symmetric(3),3)"],
    "primitive_large_stab": ["subsets(6,2)", "product(5,3)", "symmetric(8)", "m24"],
    "primitive_prime": ["cyclic(17)", "dihedral(19)"],
}


def tiny_run(workload, trace, wrap_entry=None):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(workload, 1, 0.05, trace, specs=TINY[workload], wrap_entry=wrap_entry)


class MetricsEmitted(unittest.TestCase):
    def setUp(self):
        self._out = run.OUT
        self._tmp = tempfile.TemporaryDirectory()
        run.OUT = Path(self._tmp.name)

    def tearDown(self):
        run.OUT = self._out
        self._tmp.cleanup()

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(
            sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.WORKLOADS)
        )
        self.assertEqual(sorted(TINY), sorted(workloads.WORKLOADS))

    def test_every_metric_for_every_workload(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_run(workload, trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
            self.assertTrue(any(run.OUT.iterdir()), "trace spans were not written")


class FailuresCounted(unittest.TestCase):
    def test_wrong_verdict_and_exception_are_failed(self):
        def wrap(entry, fn):
            if entry == "main":  # claims primitive for imprimitive groups
                return lambda gens: SimpleNamespace(kind="primitive", blocks=None)
            if entry == "uncapped":
                def boom(gens):
                    raise RuntimeError("injected")
                return boom
            return fn

        result = tiny_run("imprimitive_pow2", 0, wrap_entry=wrap)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])  # baseline still passes
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_correct_run_has_no_failures(self):
        result = tiny_run("primitive_prime", 0)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)


class NeedsSources(unittest.TestCase):
    def test_exit_code_without_package(self):
        saved = run.SRC
        with tempfile.TemporaryDirectory() as empty:
            run.SRC = Path(empty)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(
                        ["--workload", "primitive_prime", "--seed", "1", "--seconds", "1"]
                    )
            finally:
                run.SRC = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
