#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload pair3d --seed 1 --seconds 20 --trace 0

Workloads: pair3d, recon3d, stream2d, serve2d (see BENCHMARK.json for why
each exists); --workload all runs the four in turn. The first run
configures and builds the library and the
benchmark with CMake (Release) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later runs only rebuild what
changed. The last line of standard output is the result JSON; the line
before it is the run context (nproc, ISA, build type, commit, seed, ...).

Exit status: 0 when every correctness gate and accounting check passed,
1 when one failed (the result line says which in the context line), and
another non-zero status, without a result line, when the build, the run
or the result format failed.

Extra flags: --tiny runs test-size inputs (perfbench/test_perfbench.py);
--tamper corrupts one output before its check, so the run must fail.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BUILD_LIMIT_S = 850

# The per-layer metrics (BENCHMARK.json "per_layer") each workload runs; a
# traced run reports 0 for the others. A name ending in "." covers every
# metric it prefixes.
_PREP_COLD = ["prep.cold_s", "prep.partition_s", "prep.bin_s",
              "prep.reorder_s", "prep.gather_s", "prep.graph_s"]
_OPERATOR = ["core.", "kernels.", "fft."]
LAYERS = {
    "pair3d": _PREP_COLD + _OPERATOR + ["batch.b1_pair_s", "trace.overhead"],
    "recon3d": _PREP_COLD + ["batch.fwd_s", "batch.adj_s", "cg.",
                             "trace.overhead"],
    "stream2d": _PREP_COLD + _OPERATOR + [
        "prep.update_s", "prep.rebinned_samples", "prep.dirty_tasks",
        "prep.fallbacks", "trace.overhead"],
    "serve2d": _PREP_COLD + ["engine.", "serve.", "trace.overhead"],
}
WORKLOADS = list(LAYERS)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the perfbench target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step {cmd[:2]} failed: {exc}")
            return False
        if res.returncode != 0:
            log(f"build step {' '.join(cmd)} exited {res.returncode}")
            return False
    return True


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if res.returncode == 0 and res.stdout.strip():
                return res.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def runs_layer(workload, name):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in LAYERS[workload])


def select_metrics(res, workload, trace):
    """Replaces the metrics the program recorded with the set BENCHMARK.json
    names for this mode; returns an error string or None."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    per_layer = {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    recorded = res["metrics"]
    for name, m in recorded.items():
        if name not in units or m.get("unit") != units[name]:
            return f"metric {name} is undeclared or not in {units.get(name)}"
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            return f"metric {name} is not a finite number"
        if name in per_layer and not runs_layer(workload, name):
            return f"{workload} does not run {name}"
    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in recorded:
            chosen[m["name"]] = recorded[m["name"]]
        elif trace and not runs_layer(workload, m["name"]):
            chosen[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            return f"metric {m['name']} missing"
    res["metrics"] = chosen
    return None


def check_result(line, workload, trace):
    """Parses the result line and selects its metrics; returns (result,
    error string or None)."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, f"last line is not JSON: {exc}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"result keys {sorted(res)}"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None, "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return None, "failed must be a whole number >= 0"
    return res, select_metrics(res, workload, trace)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        return 3

    commit = source_id()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = max(status, run_one(build_dir, workload, commit, args))
    return status


def run_one(build_dir, workload, commit, args):
    """Runs one workload and prints its output; returns its exit status."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper:
        cmd.append("--tamper")
    # Set-up, the traced extras and the correctness checks come on top of
    # the measured seconds.
    limit_s = 2 * args.seconds + 60
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {limit_s:g} s")
        return 4
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        # A negative code is a signal: still a failed run.
        log(f"run exited {proc.returncode} without a result")
        return proc.returncode if proc.returncode > 1 else 4
    res, err = check_result(lines[-1], workload, args.trace == 1)
    if err is not None:
        log(f"bad result line: {err}")
        return 5
    lines[-1] = json.dumps(res)
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
