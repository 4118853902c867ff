#!/usr/bin/env python3
"""Builds and runs the repo benchmark, checks its outputs, prints its metrics.

Run from the repository root:

  python3 benchmark/run.py                          # every workload, seed 42
  python3 benchmark/run.py --workload paper_ml100k,service_fanin --seed 7
  python3 benchmark/run.py --trace 1                # per-layer metrics + traces
  python3 benchmark/run.py --smoke                  # every path and check, fast
  python3 benchmark/run.py --runs 5 --record        # baseline -> history.jsonl

The benchmark is a Release build of benchmark/CMakeLists.txt in
build-benchmark/. Each workload runs in its own process. Every metric is
printed as `workload metric value unit`; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A result
file stamped with rev, time, host and build goes to build-benchmark/results/
(or --out). The exit code is 1 when a correctness check failed.
"""

import argparse
import fcntl
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD_DIR, "fedrec_benchmark")
GOLDEN = os.path.join(BENCH_DIR, "golden", "seed42.json")
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")
TRAINING = ("paper_ml100k", "robust_ml1m_s4", "faults_ml100k_s2")
# Recovered shard faults are bit-identical, so these two share a digest.
SAME_TRAJECTORY = ("paper_ml100k", "faults_ml100k_s2")
MIN_ER10 = 0.9
# Per-layer metrics this script derives from a traced and an untraced run.
RUNNER_METRICS = ("obs.trace_overhead_pct",)
# A traced run is two binary runs; together they stay under the 180 s a run
# of the benchmark command may take.
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.0


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds the binary (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the library sources (CMakeLists.txt, src/) are missing beside benchmark/")
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path = os.path.join(BUILD_DIR, "build.log")
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", BUILD_DIR, "--target", "fedrec_benchmark",
                          "-j", str(os.cpu_count() or 1)])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed (log: build-benchmark/build.log)")


def run_binary(workload, seed, seconds, traced, smoke, setup_reps, timeout, trace_out=None):
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--setup-reps=%d" % setup_reps]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd.append("--trace-out=" + trace_out)
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def binary_id():
    st = os.stat(BINARY)
    return "%d-%d" % (st.st_mtime_ns, st.st_size)


def check_digests(report, smoke, checks):
    """Same build + same seed must give the same model digest: across runs,
    traced or not, and between the two workloads that share a trajectory.
    Digests persist per build in the results directory."""
    quality = report["quality"]
    if quality is None:
        return
    path = os.path.join(BUILD_DIR, "results", "digests.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a+") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        f.seek(0)
        text = f.read()
        store = json.loads(text) if text.strip() else {}
        key = "%s/%s/seed%d" % (binary_id(), "smoke" if smoke else "full", report["seed"])
        seen = store.setdefault(key, {})
        workload = report["workload"]
        names = SAME_TRAJECTORY if workload in SAME_TRAJECTORY else (workload,)
        for name in names:
            if name in seen and seen[name] != quality["model_digest"]:
                checks.append("digest: %s %s != %s %s" % (
                    workload, quality["model_digest"], name, seen[name]))
        seen[workload] = quality["model_digest"]
        f.seek(0)
        f.truncate()
        json.dump(store, f, indent=1, sort_keys=True)


def check_report(report, spec, smoke):
    """Policy checks on one report; returns the failed checks."""
    checks = list(report["failures"])
    layer = "per_layer" if report["traced"] else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer] if m["name"] not in RUNNER_METRICS}
    got = {name: m["unit"] for name, m in report[layer].items()}
    if got != expected:
        checks.append("schema: %s metrics %s, expected %s" % (layer, sorted(got), sorted(expected)))
    for name, m in report["end_to_end"].items():
        if not (math.isfinite(m["value"]) and m["value"] > 0):
            checks.append("metric: %s = %r" % (name, m["value"]))
    quality = report["quality"]
    workload = report["workload"]
    if workload in TRAINING and quality is None:
        checks.append("quality: no checkpoint digest")
    if quality is not None and not smoke:
        if quality["er10"] < MIN_ER10:
            checks.append("quality: ER@10 %.4f < %.1f" % (quality["er10"], MIN_ER10))
        if report["seed"] == 42:
            with open(GOLDEN) as f:
                golden = json.load(f)["workloads"][workload]
            for key in ("checkpoint_round", "er5", "er10", "ndcg10", "hr10"):
                if round(quality[key], 4) != golden[key]:
                    checks.append("golden: %s %s = %.4f, golden %s" % (
                        workload, key, quality[key], golden[key]))
            if "ledger" in golden and report["ledger"] != golden["ledger"]:
                checks.append("golden: ledger %s, golden %s" % (report["ledger"], golden["ledger"]))
    check_digests(report, smoke, checks)
    return checks


def run_workload(workload, seed, seconds, traced, smoke, spec, results_dir, stamp):
    """One measured run. A traced run is preceded by an untraced reference
    run of the same seed, which prices the tracing and must reach the same
    digest."""
    reps = 1 if smoke else 3
    if not traced:
        report = run_binary(workload, seed, seconds, False, smoke, reps, RUN_TIMEOUT_S)
        report["checks"] = check_report(report, spec, smoke)
        return report
    reference = run_binary(workload, seed, seconds, False, smoke, 1, RUN_TIMEOUT_S / 2)
    ref_checks = check_report(reference, spec, smoke)
    trace_path = os.path.join(results_dir, "%s-seed%d-%s.trace.json" % (workload, seed, stamp))
    report = run_binary(workload, seed, seconds, True, smoke, reps, RUN_TIMEOUT_S / 2,
                        trace_path)
    report["checks"] = ref_checks + check_report(report, spec, smoke)
    untraced = reference["end_to_end"]["rounds_per_s"]["value"]
    traced_rps = report["end_to_end"]["rounds_per_s"]["value"]
    report["per_layer"]["obs.trace_overhead_pct"] = {
        "value": 100.0 * (untraced - traced_rps) / untraced, "unit": "%"}
    report["trace_file"] = os.path.relpath(trace_path, ROOT)
    return report


def host_stamp(reports):
    stamp = {"utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "rev": "unknown", "nproc": os.cpu_count(), "cpu": platform.processor(),
             "compiler": "unknown"}
    if os.path.exists(os.path.join(ROOT, ".git")):  # checkouts may carry no history
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True)
            if rev.returncode == 0:
                stamp["rev"] = rev.stdout.strip()
        except OSError:
            pass
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    stamp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            fields = dict(line.strip()[4:-1].split(" ", 1) for line in f
                          if line.startswith(("set(CMAKE_CXX_COMPILER_ID ",
                                              "set(CMAKE_CXX_COMPILER_VERSION ")))
        stamp["compiler"] = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?").strip('"'),
                                       fields.get("CMAKE_CXX_COMPILER_VERSION", "?").strip('"'))
    if reports:
        stamp["build_type"] = reports[0]["build_type"]
        stamp["threads"] = {r["workload"]: r["threads"] for r in reports}
    return stamp


def medians(reports, layer):
    """Per-workload median of each metric over the runs."""
    out = {}
    for workload in sorted({r["workload"] for r in reports}):
        runs = [r for r in reports if r["workload"] == workload]
        out[workload] = {name: statistics.median(r[layer][name]["value"] for r in runs)
                         for name in runs[0][layer]}
    return out


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured rounds, as seconds at each workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics and a Chrome trace per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="short runs of every workload and check; not for recording")
    parser.add_argument("--runs", type=int, default=1, help="runs of each workload")
    parser.add_argument("--record", action="store_true",
                        help="append the per-workload medians to benchmark/history.jsonl")
    parser.add_argument("--out", default=os.path.join(BUILD_DIR, "results"),
                        help="directory for the result file and traces")
    args = parser.parse_args()
    traced = args.trace == 1
    workloads = [w for arg in (args.workload or [",".join(names)]) for w in arg.split(",") if w]
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        fail("unknown workload(s) %s; choose from %s" % (unknown, names))
    if args.record and (traced or args.smoke):
        fail("--record takes untraced, full-length runs")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    build()
    os.makedirs(args.out, exist_ok=True)
    run_stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    reports = []
    for run in range(args.runs):
        for workload in workloads:
            report = run_workload(workload, args.seed, seconds, traced, args.smoke, spec,
                                  args.out, run_stamp)
            report["run"] = run
            report["utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            reports.append(report)
            layer = "per_layer" if traced else "end_to_end"
            for name, m in report[layer].items():
                print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))
            for check in report["checks"]:
                print("%s CHECK FAILED %s" % (workload, check))
            sys.stdout.flush()

    stamp = host_stamp(reports)
    layer = "per_layer" if traced else "end_to_end"
    result = {"stamp": stamp, "seed": args.seed, "seconds": seconds, "traced": traced,
              "smoke": args.smoke, "runs": reports}
    result_path = os.path.join(args.out, "result-%s-%d.json" % (run_stamp, os.getpid()))
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)
    if args.record:
        line = dict(stamp, seed=args.seed, seconds=seconds, runs=args.runs,
                    medians=medians(reports, "end_to_end"))
        with open(HISTORY, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")

    correct = all(not r["checks"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0][layer]
    else:
        metrics = {"%s.%s" % (w, name): {"value": v, "unit": reports[0][layer][name]["unit"]}
                   for w, values in medians(reports, layer).items()
                   for name, v in values.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
