#!/usr/bin/env python3
"""Benchmark entry point for qcongest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark runner (perfbench/CMakeLists.txt, linking the
libraries under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs one workload.
Everything the runner prints is passed through; the last line is the
result object, holding exactly the metrics BENCHMARK.json lists for the
mode: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. A missing metric or unit mismatch is an error, not a result.

Extra flags for perfbench/smoke_test.py: --tiny (small inputs) and
--corrupt-reference (wrong reference answers, so every check must fire).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Untraced runs of these workloads are split over several runner processes
# of equal length, process p running on its own inputs (runner seed
# seed * 1000 + p). The metrics-on query's cost is set by its graph (on
# diam:256:16 one seed's three graphs cost 1.2x another's, run after run)
# and by its process (3 s processes on one seed have read 0.45 to 0.69 s
# per query), so five processes of three graphs each average both.
PROCESSES = {"exact-diam256-metrics": 5}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured from another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "qc_perfbench")


def fingerprint():
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_once(cmd, workload):
    """Runs the runner binary once; echoes its progress lines and returns its
    result and report lines as dicts."""
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    result = report = None
    for line in run.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        elif line.startswith("report "):
            report = json.loads(line[len("report "):])
        else:
            print(line)
    if run.returncode != 0 or result is None or report is None:
        fail(f"runner exited with status {run.returncode} and no result")
    return result, report


def merge(results, reports, seed):
    """One result and report from several runner processes: time and CPU
    per query are the mean over processes, set-up the median, peak RSS the
    maximum, model costs the sum over processes."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    costs = {}
    for r in reports:
        for name, value in r["model_costs"].items():
            costs[name] = costs.get(name, 0) + value
    report = dict(reports[0])
    report.update(seed=seed, attempted=attempted, failed=failed,
                  fail_rate=failed / max(attempted, 1),
                  failures=sum((r["failures"] for r in reports), [])[:8],
                  model_costs=costs, processes=len(reports),
                  process_seeds=[r["seed"] for r in reports],
                  process_query_s=[r["metrics"]["query_s"]["value"]
                                   for r in results])
    print("report " + json.dumps(report))

    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    metrics = {}
    for name, m in results[0]["metrics"].items():
        if name in ("query_s", "cpu_s"):
            value = statistics.fmean(values(name))
        elif name == "peak_rss_mb":
            value = max(values(name))
        else:
            value = statistics.median(values(name))
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    sha, digest = fingerprint()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", out, "--git-sha", sha,
           "--src-digest", digest]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    procs = 1 if args.trace else PROCESSES.get(args.workload, 1)
    if procs > 1:
        cmd[cmd.index("--seconds") + 1] = repr(args.seconds / procs)
    results, reports = [], []
    for p in range(procs):
        if procs > 1:
            cmd[cmd.index("--seed") + 1] = str(args.seed * 1000 + p)
        result, report = run_once(cmd, args.workload)
        results.append(result)
        reports.append(report)
    if procs > 1:
        result = merge(results, reports, args.seed)
    else:
        result = results[0]
        print("report " + json.dumps(reports[0]))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
