#!/usr/bin/env python3
"""Benchmark entry point.

Builds the benchmark driver (perfbench/src) and the store's library (src/)
from source in this checkout, runs one workload, checks the result against
the metric list in BENCHMARK.json and prints it. The last line of standard
output is the JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is synth-hot, rubis-sharded, tpcc-durable or tcp-loopback; "all" runs
the four in one process and prefixes each metric with its workload. See
perfbench/NOTES.md for what each workload loads and why.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), build
output to standard error. Traced runs write their spans to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["synth-hot", "rubis-sharded", "tpcc-durable", "tcp-loopback"]
# A run must end within 180 s; leave room for the checks around it.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("program sources not found: expected src/ beside perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            die(f"build failed: {' '.join(cmd)}")
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        die(f"build produced no {binary}")
    return binary


def run_binary(binary, argv, timeout=RUN_TIMEOUT_S):
    """Run the driver to completion; returns its stdout lines."""
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"run exceeded {timeout} s", 3)
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}", 3)
    return out.splitlines()


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(result, expected):
    """Problems with the reported metric set, as a list of strings."""
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name] != unit:
            problems.append(f"metric {name} has unit {got[name]}, want {unit}")
    for name in got:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(span_dir, exist_ok=True)
        argv += ["--span-dir", span_dir]
    lines = run_binary(binary, argv)
    if not lines:
        die("driver printed nothing", 3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("driver's last line is not a JSON result", 3)

    for line in lines[:-1]:
        print(line)
    if args.workload != "all":
        problems = check_metrics(result, expected_metrics(args.trace))
        for p in problems:
            print(f"CHECK FAILED: {p}")
        if problems:
            result["correct"] = False
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
