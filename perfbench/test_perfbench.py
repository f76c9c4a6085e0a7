#!/usr/bin/env python3
"""The benchmark's own fast tests: every workload in --tiny mode, traced and
untraced, plus the failure paths (a corrupted output, missing sources, a
program killed by a signal, a malformed metric set).

Run from the repository root (the first run builds perfbench):

    python3 perfbench/test_perfbench.py
"""
import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as perfbench_run  # noqa: E402
WORKLOADS = ["pair3d", "recon3d", "stream2d", "serve2d"]
CONTEXT_KEYS = {"workload", "seed", "trace", "nproc", "isa", "build_type",
                "commit"}


def run(*extra, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3",
           "--seconds", "0.3", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TinyWorkloads(unittest.TestCase):
    def check_run(self, workload, trace):
        res = run("--workload", workload, "--trace", str(trace))
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        lines = res.stdout.strip().splitlines()
        context = json.loads(lines[-2])["context"]
        self.assertTrue(CONTEXT_KEYS <= set(context), context)
        self.assertEqual(context["workload"], workload)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in want})
        return result["metrics"]

    def test_untraced_reports_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_run(w, 0)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_reports_per_layer_metrics(self):
        # One layer each workload runs (non-zero) and one it does not (zero).
        runs = {"pair3d": ("core.spread_s", "batch.adj_s"),
                "recon3d": ("batch.adj_s", "core.spread_s"),
                "stream2d": ("prep.update_s", "serve.completed"),
                "serve2d": ("serve.completed", "core.spread_s")}
        for w, (ran, skipped) in runs.items():
            with self.subTest(workload=w):
                metrics = self.check_run(w, 1)
                self.assertGreater(metrics["trace.overhead"]["value"], 0.0)
                self.assertGreater(metrics["prep.cold_s"]["value"], 0.0)
                self.assertGreater(metrics[ran]["value"], 0.0)
                self.assertEqual(metrics[skipped]["value"], 0.0)

    def test_corrupted_output_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = run("--workload", w, "--trace", "0", "--tamper")
                self.assertEqual(res.returncode, 1, res.stderr[-2000:])
                self.assertFalse(json.loads(res.stdout.strip().splitlines()[-1])["correct"])
                self.assertIn("CHECK FAILED", res.stderr)


class Packaging(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            res = run("--workload", "pair3d", "--trace", "0", cwd=tmp, env=env)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


class ResultHandling(unittest.TestCase):
    """run.py's handling of the program's exit and result, without a build."""

    def run_stub(self, script):
        """run_one on a stand-in program; returns (status, stdout)."""
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            exe = os.path.join(tmp, "perfbench")
            with open(exe, "w") as f:
                f.write("#!/bin/sh\n" + script + "\n")
            os.chmod(exe, 0o755)
            args = argparse.Namespace(seed=1, seconds=1.0, trace=0,
                                      tiny=False, tamper=False)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = perfbench_run.run_one(tmp, "pair3d", "c", args)
        return status, out.getvalue()

    def test_killed_by_a_signal_fails_without_a_result(self):
        result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {}})
        for sig in ("SEGV", "ABRT", "KILL"):
            with self.subTest(signal=sig):
                status, out = self.run_stub(f"echo '{result}'; kill -{sig} $$")
                self.assertGreater(status, 1)
                self.assertEqual(out, "")

    def select(self, metrics, workload="pair3d", trace=False):
        res = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            return perfbench_run.select_metrics(res, workload, trace), res
        finally:
            os.chdir(cwd)

    def test_metric_selection(self):
        e2e = {m["name"]: (1.5, m["unit"]) for m in spec()["end_to_end"]}
        err, res = self.select(e2e)
        self.assertIsNone(err)
        self.assertEqual(set(res["metrics"]), set(e2e))
        missing = dict(e2e)
        del missing["op_s"]
        self.assertIn("missing", self.select(missing)[0])
        self.assertIn("undeclared", self.select({**e2e, "x": (1.0, "s")})[0])
        self.assertIn("undeclared", self.select({**e2e, "op_s": (1.0, "ms")})[0])
        self.assertIn("does not run",
                      self.select({**e2e, "cg.iters": (4, "count")})[0])
        # A traced run drops the end-to-end metrics it recorded and reports
        # 0 for the layers its workload does not run.
        layers = {m["name"]: (2.0, m["unit"]) for m in spec()["per_layer"]
                  if perfbench_run.runs_layer("recon3d", m["name"])}
        err, res = self.select({**e2e, **layers}, "recon3d", trace=True)
        self.assertIsNone(err)
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in spec()["per_layer"]})
        self.assertEqual(res["metrics"]["cg.iters"]["value"], 2.0)
        self.assertEqual(res["metrics"]["core.spread_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
