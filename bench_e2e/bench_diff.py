#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs: a parent commit and a change.

    python3 bench_e2e/bench_diff.py PARENT_DIR CHANGE_DIR
                                    [--benchmark BENCHMARK.json]

Each directory holds the schema-2 reports `run.py --json` writes, any
number of runs per workload (one file per run). Runs are paired in
(seed, file name) order, so write both sets with the same seeds and
alternate which side runs first.

For every workload and end-to-end metric of BENCHMARK.json the table
gives each side's median and quartiles over its runs, the share of pairs
the change won (ties count for neither side) and a verdict:

  improved    the change won at least 9 of 10 pairs and its median is
              better than the parent's by more than the parent's
              interquartile range;
  unresolved  the parent's interquartile range is wider than the metric's
              bound, and not every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   everything else.

Traced reports (--trace 1) are listed per layer, parent median against
change median, without a verdict. Exits 1 on any regression or any rise
in the share of failed operations, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, traced): [report, ...]} in (seed, file name) order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("bench") != "e2e" or doc.get("schema") != 2:
            continue
        row = doc["rows"][0]
        doc["_key"] = (doc["seed"], os.path.basename(path))
        runs.setdefault((doc["workload"], bool(row["trace"])), []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["_key"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(docs):
    attempted = sum(d["rows"][0]["attempted"] for d in docs)
    failed = sum(d["rows"][0]["failed"] for d in docs)
    return failed / attempted if attempted else 0.0


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    gap = sign * (c_med - p_med)  # > 0: the change is better
    iqr = p_q3 - p_q1
    if share >= 0.9 and gap > iqr:
        label = "improved"
    elif iqr > bound * abs(p_med) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        label = "unresolved"
    elif -gap > bound * abs(p_med):
        label = "regressed"
    else:
        label = "unchanged"
    return share, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    status = 0
    print(f"{'workload':14} {'metric':16} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5}  verdict")
    for w in [wl["name"] for wl in spec["workloads"]]:
        p_docs, c_docs = parent.get((w, False), []), change.get((w, False), [])
        if not p_docs or not c_docs:
            print(f"{w:14} (no untraced runs on both sides)")
            continue
        for m in spec["end_to_end"]:
            pv = [d["metrics"][m["name"]]["median"] for d in p_docs]
            cv = [d["metrics"][m["name"]]["median"] for d in c_docs]
            share, label = verdict(pv, cv, m["better"], m["bound"])
            if label == "regressed":
                status = 1
            fmt = lambda v: "%9.4g/%9.4g/%9.4g" % quartiles(v)
            print(f"{w:14} {m['name']:16} {fmt(pv):>32} {fmt(cv):>32} "
                  f"{share:5.0%}  {label}")
        p_fail, c_fail = failed_share(p_docs), failed_share(c_docs)
        if c_fail > p_fail:
            print(f"{w:14} failed share rose: {p_fail:.4%} -> {c_fail:.4%}")
            status = 1

    for w in [wl["name"] for wl in spec["workloads"]]:
        p_docs, c_docs = parent.get((w, True), []), change.get((w, True), [])
        if not p_docs or not c_docs:
            continue
        print(f"\nper-layer, {w} (medians over traced runs)")
        for m in spec["per_layer"]:
            pm = statistics.median(d["metrics"][m["name"]]["median"]
                                   for d in p_docs)
            cm = statistics.median(d["metrics"][m["name"]]["median"]
                                   for d in c_docs)
            delta = f"{(cm - pm) / pm:+8.1%}" if pm else ""
            print(f"  {m['name']:26} {pm:12.5g} -> {cm:12.5g} {delta} "
                  f"{m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
