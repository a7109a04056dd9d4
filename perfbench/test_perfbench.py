#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (builds the benchmark like run.py does):

    python3 perfbench/test_perfbench.py

- Exact counts: the traced run's deterministic counts (paths, distinct
  paths, predicate matches, occurrence runs, matches per document,
  distinct predicates) repeat exactly for one seed and change with
  another seed, on every workload.
- Result contract: the result line carries exactly the metrics that
  BENCHMARK.json names, with their units, and reports a correct run.
- Without the library sources next to it, the benchmark exits non-zero
  and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SECONDS = "2"
COUNTS = (
    "xml.paths_per_doc",
    "core.distinct_paths_per_doc",
    "core.predicate_matches_per_doc",
    "core.occurrence_runs_per_doc",
    "core.matches_per_doc",
    "core.distinct_predicates",
)


def run(workload, seed, trace, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


class ExactCountsTest(unittest.TestCase):
    def counts(self, workload, seed):
        proc = run(workload, seed, 1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        metrics = result_of(proc)["metrics"]
        return tuple(metrics[name]["value"] for name in COUNTS)

    def test_counts_repeat_for_a_seed_and_change_with_it(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            with self.subTest(workload=workload):
                first = self.counts(workload, 11)
                self.assertEqual(first, self.counts(workload, 11))
                self.assertNotEqual(first, self.counts(workload, 12))


class ResultContractTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc = run(workload, 3, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        return result

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            with self.subTest(workload=workload):
                result = self.check(workload, 0, spec()["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 1, spec()["per_layer"])


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
            REPO, ".bench_build")
        bare = os.path.join(os.path.abspath(build), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "psd-attr", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
