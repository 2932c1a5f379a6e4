"""Self-test of the benchmark harness (standard library only).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Smoke-runs every workload at tiny size, checks that the printed metric
names and units match BENCHMARK.json, that spans nest with non-negative
self times, and that a deliberately corrupted output counts as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace=0, *flags):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *flags],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def check_spans(test, spans):
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        test.assertLessEqual(s["start"], s["end"])
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            test.assertLessEqual(parent["start"], s["start"])
            test.assertLessEqual(s["end"], parent["end"])
            test.assertEqual(parent["op"], s["op"])
    own = self_times(spans)
    test.assertTrue(all(v >= 0 for v in own.values()))
    test.assertTrue(all(s.get("self", own[s["id"]]) == own[s["id"]] for s in spans))


class TracerTest(unittest.TestCase):
    def test_nesting_and_self_time(self):
        tracer = Tracer()
        tracer.op_id = 0
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
            with tracer.span("inner"):
                pass
        outer, first, second = tracer.spans
        self.assertEqual((first["parent"], second["parent"]), (outer["id"], outer["id"]))
        check_spans(self, tracer.spans)
        own = self_times(tracer.spans)
        total = outer["end"] - outer["start"]
        children = sum(s["end"] - s["start"] for s in (first, second))
        self.assertEqual(own[outer["id"]], total - children)


class WorkloadTest(unittest.TestCase):
    def test_workload_names(self):
        # lib-parametric runs by hand but is not gated (see README)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], ["cli-kde", "lib-distance"])

    def run_and_check(self, workload):
        meta, line = bench(workload)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], meta)
        self.assertEqual(line["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()},
                         expected("end_to_end"))
        self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))
        for key in ("nproc", "cpu", "python", "numpy", "commit", "seed", "ops",
                    "op_samples", "tail_percentile"):
            self.assertIn(key, meta)

    def test_lib_distance(self):
        self.run_and_check("lib-distance")

    def test_lib_parametric(self):
        self.run_and_check("lib-parametric")

    def test_cli_kde(self):
        self.run_and_check("cli-kde")

    def test_traced_run(self):
        for workload in ("lib-distance", "cli-kde"):
            _, line = bench(workload, 1)
            self.assertTrue(line["correct"])
            self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()},
                             expected("per_layer"))
            spans = json.loads((HERE / "out" / f"spans-{workload}-seed3.json")
                               .read_text(encoding="utf-8"))
            self.assertTrue(spans)
            check_spans(self, spans)

    def test_corrupted_output_fails(self):
        for workload in ("lib-distance", "lib-parametric", "cli-kde"):
            _, line = bench(workload, 0, "--corrupt")
            self.assertFalse(line["correct"], workload)
            self.assertGreaterEqual(line["failed"], 1, workload)


if __name__ == "__main__":
    unittest.main()
