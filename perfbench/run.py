#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qlec checkout. The build goes to .bench_build/perfbench
(progress on stderr); the harness result line is checked against
BENCHMARK.json and printed as the last line of stdout. Any failure exits
non-zero without printing a result.
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    (the build's make and compiler children too) and waits for it."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                                start_new_session=True)
    except OSError as e:
        fail("cannot start %s: %s" % (cmd[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (" ".join(cmd[:2]), timeout))
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            fail("build step %s exited %d" % (" ".join(step[:2]), code))


def check_result(line, expected):
    """The result line's shape, and exactly the expected metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s is not an integer" % key)
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted/failed out of range")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ set(expected)))
    for name, m in metrics.items():
        if not NAME_RE.match(name) or set(m) != {"value", "unit"}:
            raise ValueError("bad metric %s" % name)
        if m["unit"] != expected[name] or not UNIT_RE.match(m["unit"]):
            raise ValueError("unit of %s is %s, not %s" % (name, m["unit"], expected[name]))
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("value of %s is not a number" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("harness exited %d" % code)
    try:
        check_result(lines[-1], expected)
    except ValueError as e:
        fail("malformed result: %s" % e)
    print(lines[-1])


if __name__ == "__main__":
    main()
