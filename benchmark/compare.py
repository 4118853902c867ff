#!/usr/bin/env python3
"""Compares benchmark results of a parent and a change commit.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by `benchmark/run.py --out DIR`,
with at least 10 untraced runs of every workload compared, taken in
alternating order (parent, change, parent, ...) with the same settings. The
i-th parent run of a workload is paired with its i-th change run.

For every workload and metric this prints the median and quartiles of both
sides. For each end-to-end metric of BENCHMARK.json it also prints a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ,
              in its favour, by more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's spread (IQR over median) is wider than the bound, and
              not every change run beats every parent run
  unchanged   none of the above

The exit code is 1 when any metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_RUNS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """Untraced, full-length runs per workload, in the order they ran."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        if not isinstance(result, dict) or "runs" not in result:
            continue  # traces and other files
        if result["traced"] or result["smoke"]:
            continue
        for run in result["runs"]:
            runs.setdefault(run["workload"], []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda r: (r["utc"], r["run"]))
    return runs


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    if wins >= WIN_SHARE * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent_runs or w["name"] in change_runs]
    if not workloads:
        sys.exit("compare.py: no untraced results in %s or %s" % (args.parent, args.change))
    regressions = 0
    print("%-17s %-14s %-32s %-32s %s" % ("workload", "metric", "parent median [q1, q3]",
                                           "change median [q1, q3]", "verdict"))
    for workload in workloads:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if min(len(parent), len(change)) < MIN_RUNS:
            sys.exit("compare.py: %s has %d parent and %d change runs; %d each are needed"
                     % (workload, len(parent), len(change), MIN_RUNS))
        pairs = min(len(parent), len(change))
        for name in parent[0]["end_to_end"]:
            p = [r["end_to_end"][name]["value"] for r in parent[:pairs]]
            c = [r["end_to_end"][name]["value"] for r in change[:pairs]]
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            result = verdict(p, c, *bounds[name]) if name in bounds else "-"
            regressions += result == "regression"
            print("%-17s %-14s %-32s %-32s %s" % (
                workload, name, "%.5g [%.5g, %.5g]" % (p_med, p_q1, p_q3),
                "%.5g [%.5g, %.5g]" % (c_med, c_q1, c_q3), result))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
