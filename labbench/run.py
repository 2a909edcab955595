#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 labbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the labbench program (a CMake
package in this directory that compiles the simulator from ../src) into
.bench_build/labbench, runs one workload in its own process, and relays
its output. The last line of standard output is the program's JSON result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list,
and the traced run also writes a Chrome trace-event file (opened by
Perfetto or chrome://tracing) into .bench_build/labbench/out.

At the seed stored in labbench/digests.json, the program also compares its
result digest against the stored one. Exit status: the program's (0 ok, 1 a
correctness check failed, 2 error); 2 as well when the sources are missing,
the build fails, the run times out, or the result line is malformed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "labbench"
OUT = BUILD / "out"
TMP = BUILD / "tmp"
WORKLOADS = ("lab_convergence", "served_churn")

# A first run builds the simulator (about a minute on 4 cores) and must end
# within fifteen minutes; a run of a built checkout within three.
FIRST_RUN_DEADLINE_S = 895
RUN_DEADLINE_S = 175


def fail(message):
    print(f"labbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env, deadline):
    if not (ROOT / "src" / "analysis" / "plan.hpp").is_file():
        fail("simulator sources not found at src/ beside labbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def expected_digest(workload, seed):
    stored = json.loads((HERE / "digests.json").read_text())
    if seed != stored["seed"]:
        return None
    return stored["digests"].get(workload)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")


def check_trace(stdout):
    for line in stdout.splitlines():
        if line.startswith("chrome trace: "):
            path = pathlib.Path(line[len("chrome trace: "):])
            events = json.loads(path.read_text())["traceEvents"]
            if not events or any("ph" not in e or "ts" not in e
                                 for e in events):
                raise ValueError(f"{path} is not trace-event JSON")
            return
    raise ValueError("traced run wrote no chrome trace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    start = time.monotonic()
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    built = (BUILD / "labbench").is_file()
    limit = start + (RUN_DEADLINE_S if built else FIRST_RUN_DEADLINE_S)
    build(env, limit)
    deadline = min(limit, time.monotonic() + RUN_DEADLINE_S)

    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "labbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT),
           "--spec", str(ROOT / "BENCHMARK.json")]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"labbench exited with status {done.returncode}")
    try:
        check_result(lines[-1])
        if args.trace:
            check_trace(done.stdout)
    except (ValueError, KeyError, OSError) as error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"bad result: {error}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
