#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload collab-adhoc --seed 1 --seconds 23 --trace 0

The first run configures and builds perfbench/ (which compiles src/) into the
directory named by $CARGO_TARGET_DIR, or .bench_build when unset. The binary
prints a header, one line per metric and one JSON line with every metric; this
script passes the human-readable lines through and prints, as its last line,
{"correct", "attempted", "failed", "metrics"} restricted to the end_to_end
metrics of BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
--smoke runs tiny sizes and also checks that the binary emits exactly the
metric names and units BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr; stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir, "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark printed no result line (exit %d)" % proc.returncode, 1)

    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    emitted = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in emitted]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing), 1)
    if args.smoke:
        unlisted = sorted(set(emitted) - set(listed))
        wrong_unit = sorted(n for n in emitted if n in listed
                            and emitted[n]["unit"] != listed[n]["unit"])
        if unlisted or wrong_unit:
            fail("emitted but not in BENCHMARK.json: %s; unit differs: %s"
                 % (unlisted, wrong_unit), 1)
        if result["attempted"] < 1:
            fail("the correctness gate checked nothing", 1)
        print("smoke: all %d metric names present, correctness gate ran on %d "
              "operations" % (len(listed), result["attempted"]))
    result["metrics"] = {m["name"]: emitted[m["name"]] for m in wanted}
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
