#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload scan_mix --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench_runner (Release,
native SIMD kernels) into .bench_build/perfbench on first use, passes
it the workload's knobs from perfbench/config.json, checks that its
result carries exactly the metrics BENCHMARK.json names (end-to-end
with --trace 0, per-layer with --trace 1) with their units, and
prints that result as the last line of standard output.

--short runs every workload at a tiny size (used by test_short.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUNNER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench_runner")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (names + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in config["workloads"]:
        fail("unknown workload " + args.workload)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    runner = build()
    knobs = dict(config["common"])
    knobs.update(config["workloads"][args.workload])
    if args.short:
        knobs.update(config["short"])
    spans = os.path.join(BUILD_ROOT, "traces",
                         "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden", "sim.txt"),
           "--spans-out", spans, "--commit", commit(),
           "--source-digest", source_digest()]
    for key, value in knobs.items():
        cmd += ["--" + key, str(value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUNNER_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("runner exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("runner's last line is not JSON")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        fail("metrics or units differ from BENCHMARK.json: missing %s, "
             "extra %s" % (sorted(set(units) - set(got)),
                           sorted(set(got) - set(units))))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
