#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload gpt_chat --seed 1 --seconds 20 --trace 0

Configures and builds servebench/ (which pulls in the repo's src/) into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), then runs
the `servebench` binary.  Build output goes to stderr; the binary's last
stdout line is the result JSON.  Exits non-zero, without a result line,
when the repo sources are missing or the build or run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mlp_score", "gpt_chat", "gpt_prompt")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no repo sources next to {HERE}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "servebench")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    names for this mode."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    try:
        got = list(json.loads(line)["metrics"])
    except (ValueError, KeyError):
        fail("no result line")
    if sorted(got) != sorted(want):
        diff = sorted(set(got) ^ set(want))
        fail(f"metrics {diff} differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "servebench")
    binary = build(build_dir)
    # Exact-count records are per build: a rebuilt program starts afresh.
    workdir = os.path.join(build_dir,
                           f"run-{os.stat(binary).st_mtime_ns}")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        fail(f"servebench exited with {proc.returncode}")
    check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
