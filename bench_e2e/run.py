#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload (or all of them).

    python3 bench_e2e/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--json PATH] [--quick]

Run from the root of a checkout. The first call configures and builds the
ondwin library plus bench_e2e into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The benchmark's stdout
is passed through; its last line is one JSON object with the keys
correct, attempted, failed and metrics. Every metric BENCHMARK.json names
for the mode (end_to_end for --trace 0, per_layer for --trace 1) must be
in it, or this script exits non-zero.

--workload all runs every workload in its own process and ends with one
combined JSON line whose metric names are "<workload>/<metric>".
--json PATH writes the schema-2 report (with --workload all, PATH is a
directory that receives <workload>.json).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["vgg2d_offline", "unet3d_2t", "select_cold", "rpc_light",
             "rpc_burst"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("bench_e2e: the ondwin sources (src/) are not in this checkout")
        return None
    source = os.path.join(root, "bench_e2e")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("bench_e2e: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "bench_e2e")


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, args, json_path, sha):
    """Runs one workload; returns (exit code, parsed last line or None,
    stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    else:
        cmd += ["--seconds", str(args.seconds)]
    if json_path:
        cmd += ["--json", json_path, "--git-sha", sha]
    # ONDWIN_* variables switch tracing, storage precision and huge pages
    # process-wide; the workloads are defined without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ONDWIN_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None, []
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", default="")
    p.add_argument("--quick", action="store_true",
                   help="about one second per workload (smoke test)")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 1
    expected = expected_metrics(root, args.trace)
    sha = git_sha(root) if args.json else ""

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.json and args.workload == "all":
        os.makedirs(args.json, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        json_path = args.json
        if args.json and args.workload == "all":
            json_path = os.path.join(args.json, w + ".json")
        code, result, lines = run_one(binary, w, args, json_path, sha)
        body = lines[:-1] if result is not None else lines
        for line in body:
            print(line)
        if result is None:
            log(f"bench_e2e: {w} printed no result line")
            return 1
        missing = [m for m in expected or [] if m not in result["metrics"]]
        if missing:
            log(f"bench_e2e: {w} lacks metrics {missing}")
            return 1
        if code != 0:
            status = code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(workloads) == 1:
            print(lines[-1], flush=True)  # verbatim, every digit kept
            return status
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
