#!/usr/bin/env python3
"""Smoke test of the qcongest benchmark at tiny sizes.

    python3 perfbench/smoke_test.py [--workload NAME ...]

For every workload in BENCHMARK.json it runs perfbench/run.py with --tiny
and checks that

  * the last line is the result object with exactly the keys the contract
    names, the run is correct and nothing failed;
  * --trace 0 prints every end-to-end metric and --trace 1 every per-layer
    metric, each with its BENCHMARK.json unit and nothing else;
  * the report line carries the host fingerprint and model-cost counts,
    and the counts repeat exactly for a repeated seed;
  * the traced report names the top layer and the unattributed remainder;
  * with --corrupt-reference (wrong reference answers) the answer checks
    fire: correct is false and failed > 0.

Takes about a minute on 4 CPUs; exits non-zero on the first broken rule.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reports = [json.loads(l[len("report "):]) for l in lines
               if l.startswith("report ")]
    if len(reports) != 1:
        raise AssertionError(f"{workload}: expected one report line")
    return result, reports[0]


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(workload, result, wanted):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    names = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    expect(set(got) == set(names),
           f"{workload}: metrics {sorted(set(got) ^ set(names))} differ")
    for name, m in got.items():
        expect(m["unit"] == names[name], f"{workload}: {name} unit {m['unit']}")
        expect(isinstance(m["value"], (int, float)), f"{workload}: {name} value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    default=None, help="limit to these workloads")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    for w in workloads:
        r1, rep1 = run(w, 0)
        check_metrics(w, r1, spec["end_to_end"])
        expect(r1["correct"] and r1["failed"] == 0,
               f"{w}: untraced run not correct: {rep1.get('failures')}")
        for key in ("nproc", "cpu_model", "compiler", "build_type", "git_sha",
                    "src_digest"):
            expect(key in rep1["host"], f"{w}: host fingerprint lacks {key}")
        expect(rep1["model_costs"], f"{w}: no model-cost counts")
        r2, rep2 = run(w, 0)
        expect(rep1["model_costs"] == rep2["model_costs"],
               f"{w}: model costs differ for one seed: "
               f"{rep1['model_costs']} vs {rep2['model_costs']}")

        rt, rept = run(w, 1)
        check_metrics(w, rt, spec["per_layer"])
        expect(rt["correct"] and rt["failed"] == 0,
               f"{w}: traced run not correct: {rept.get('failures')}")
        expect(rept.get("top_layer") not in (None, "none"),
               f"{w}: traced report names no top layer")
        expect("unattributed" in rept.get("layer_seconds", {}),
               f"{w}: traced report lacks the unattributed remainder")

        rc, repc = run(w, 0, "--corrupt-reference")
        expect(not rc["correct"] and rc["failed"] > 0,
               f"{w}: a wrong reference went unnoticed")
        print(f"ok  {w}: {len(r1['metrics'])} end-to-end, "
              f"{len(rt['metrics'])} per-layer metrics; top layer "
              f"{rept['top_layer']}; corrupted reference -> "
              f"{rc['failed']}/{rc['attempted']} failed", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
