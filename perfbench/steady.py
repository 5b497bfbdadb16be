#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workload W ...] [--json out.json]

Runs each workload --runs times through run.py (the command and
run_seconds of BENCHMARK.json), each run with its own seed (or all
with --first-seed under --same-seed, which leaves only the host's
variance, not the inputs'), and prints
per metric the median, the quartiles (statistics.quantiles, n=4), the
spread (interquartile distance over the median) and that spread as a
share of the metric's bound. A spread at or above a third of its bound
is marked; setup_s is reported but not held to its bound. --json also
keeps every run's values and detail line. Exits 1 when a run fails or
reports incorrect output, or a marked spread remains.
"""

import argparse
import json
import statistics
import subprocess
import sys
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
    detail = json.loads(lines[-2].split(" ", 1)[1])
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def summarize(bench, values):
    rows = []
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows.append({"name": metric["name"], "unit": metric["unit"],
                     "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": metric["bound"],
                     "of_bound": spread / metric["bound"]})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        seeds = [args.first_seed + (0 if args.same_seed else i)
                 for i in range(args.runs)]
        details = []
        for seed in seeds:
            metrics, detail = run_once(bench, workload, seed)
            for name, value in metrics.items():
                values[name].append(value)
            details.append(detail)
        rows = summarize(bench, values)
        report[workload] = {"seeds": seeds, "values": values,
                            "summary": rows, "details": details}
        print("%s (%d runs, seeds %d..%d)" % (
            workload, args.runs, seeds[0], seeds[-1]))
        print("  %-22s %12s %12s %12s %8s %6s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "of_bnd"))
        for r in rows:
            mark = ""
            if r["name"] != "setup_s" and r["of_bound"] >= 1 / 3:
                mark = "  <-- not steady"
                steady = False
            print("  %-22s %12.5g %12.5g %12.5g %8.4f %6.3f %8.3f%s" % (
                r["name"], r["median"], r["q1"], r["q3"], r["spread"],
                r["bound"], r["of_bound"], mark))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
