#!/usr/bin/env python3
"""Interleaved A/B runs of bench_e2e: a parent revision against a change.

    python3 tools/bench_ab.py PARENT_REV [--change REV] --out DIR
                              [--runs N] [--workloads all|w1,w2,...]
                              [--seconds S] [--seed N] [--trace 0|1]

Exports PARENT_REV (and --change REV, if given) with `git archive` into
DIR/src-<side>; without --change the change side is a copy of this
checkout as it stands (tracked and untracked files that .gitignore does
not exclude), so edits made while the runs go on do not leak into them.
Each side's run.py builds bench_e2e into its own DIR/build-<side>
(through $CARGO_TARGET_DIR) on its first call, before it times anything.
For run i = 0..N-1 and every entry of --workloads (run.py's names, or
`all`, the default), both sides run `bench_e2e/run.py --json` back to
back, parent first on even i and change first on odd i, so slow drifts
of the host hit both sides alike. Reports land in DIR/parent and
DIR/change as <workload>-<i>.json, which bench_diff.py pairs by file
name. The script ends by running this checkout's bench_e2e/bench_diff.py
on the two directories and exits with its status.

Exports are plain directories, not git worktrees, so the repository's
git state is left as it was; delete DIR when done.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """Writes the tree of `rev` into `dest` (once)."""
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(dest)
        sys.exit(f"bench_ab: cannot export {rev}")


def snapshot(dest):
    """Copies this checkout's current files into `dest` (once)."""
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    files = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "-c", "-o",
                            "--exclude-standard"], capture_output=True,
                           check=True).stdout
    # ls-files lists deleted-but-tracked files too; tar must skip them.
    names = [f for f in files.split(b"\0")
             if f and os.path.exists(os.path.join(ROOT, os.fsdecode(f)))]
    pack = subprocess.Popen(["tar", "-c", "-C", ROOT, "--null", "-T", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    untar = subprocess.Popen(["tar", "-x", "-C", dest], stdin=pack.stdout)
    pack.stdout.close()
    pack.communicate(b"\0".join(names))
    if pack.returncode != 0 or untar.wait() != 0:
        shutil.rmtree(dest)
        sys.exit("bench_ab: cannot copy the checkout")


def run(tree, build_dir, workload, args, report_dir, i):
    """One run.py call. Its reports (one per workload) are renamed into
    `report_dir` as <workload>-<i>.json; its output goes to a .log next to
    them."""
    staging = os.path.join(report_dir, f"run-{i:02d}")
    os.makedirs(staging, exist_ok=True)
    json_arg = (staging if workload == "all"
                else os.path.join(staging, workload + ".json"))
    cmd = [sys.executable, os.path.join(tree, "bench_e2e", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", json_arg]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    log_path = os.path.join(report_dir, f"{workload}-{i:02d}.log")
    with open(log_path, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=out, env=env)
    if proc.returncode != 0:
        log(f"bench_ab: {workload} failed, see {log_path}")
    for name in os.listdir(staging):
        stem = os.path.splitext(name)[0]
        os.replace(os.path.join(staging, name),
                   os.path.join(report_dir, f"{stem}-{i:02d}.json"))
    os.rmdir(staging)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="parent revision (any git rev)")
    p.add_argument("--change", default="",
                   help="change revision (default: this checkout as is)")
    p.add_argument("--out", required=True, help="work directory")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="all",
                   help="comma-separated run.py workload names, or all")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    out = os.path.abspath(args.out)
    workloads = [w for w in args.workloads.split(",") if w]

    trees = {side: os.path.join(out, "src-" + side)
             for side in ("parent", "change")}
    export(args.parent, trees["parent"])
    if args.change:
        export(args.change, trees["change"])
    else:
        snapshot(trees["change"])
    builds = {side: os.path.join(out, "build-" + side) for side in trees}
    for side in trees:
        os.makedirs(os.path.join(out, side), exist_ok=True)

    for i in range(args.runs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                log(f"bench_ab: run {i + 1}/{args.runs} {w} {side}")
                run(trees[side], builds[side], w, args,
                    os.path.join(out, side), i)

    diff = [sys.executable, os.path.join(ROOT, "bench_e2e", "bench_diff.py"),
            os.path.join(out, "parent"), os.path.join(out, "change"),
            "--benchmark", os.path.join(ROOT, "BENCHMARK.json")]
    return subprocess.run(diff).returncode


if __name__ == "__main__":
    sys.exit(main())
