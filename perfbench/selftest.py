#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py [--seed N]

Builds the driver like run.py does, then runs every workload at a tenth of
its clients for a short window, untraced and traced, and checks that

  * every metric BENCHMARK.json names is printed in the table with its unit,
    and the JSON result carries the same metrics with the same units;
  * commit_p99_ms is reported only when at least ten samples lie beyond it,
    and is printed as withheld otherwise;
  * the traced and untraced runs at one seed agree on the deterministic
    counters (rubis-sharded is reported, not failed: its drift is a known
    defect, see NOTES.md);
  * a layer the workload bypasses reads as zero.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Runs here are tiny; each takes a few seconds.
TINY_SECONDS = "1"
# Known defect: RubisWorkload's approximate entity counts race across
# scheduler workers (NOTES.md), so this workload may drift between runs.
KNOWN_DRIFT = {"rubis-sharded"}
# Layers each workload bypasses, by metric-name prefix.
BYPASSED = {
    "synth-hot": ["wal.", "sim.epochs", "transport.", "wire.frames",
                  "verify.", "net.dropped", "net.duplicated"],
    "rubis-sharded": ["wal.", "transport.", "wire.frames", "verify."],
    "tpcc-durable": ["sim.epochs", "transport."],
    "tcp-loopback": ["wal.", "sim.epochs", "verify.", "net.dropped"],
}
TABLE_ROW = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)")


def table_rows(lines):
    rows = {}
    for line in lines:
        m = TABLE_ROW.match(line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3), line)
    return rows


def check_run(workload, trace, lines, failures):
    tag = f"{workload} trace={trace}"
    result = json.loads(lines[-1])
    expected = run.expected_metrics(trace)
    rows = table_rows(lines[:-1])
    for name, unit in expected.items():
        if name not in rows:
            failures.append(f"{tag}: {name} not printed")
        elif rows[name][1] != unit:
            failures.append(f"{tag}: {name} printed with unit {rows[name][1]},"
                            f" want {unit}")
    reported = {k: v for k, v in expected.items() if rows.get(k, ("",))[0]
                != "withheld"}
    for p in run.check_metrics(result, reported):
        failures.append(f"{tag}: {p}")
    if not result["correct"]:
        failures.append(f"{tag}: run reported correct=false")

    if trace == 0 and "commit_p99_ms" in rows:
        value, _, line = rows["commit_p99_ms"]
        m = re.search(r"n=(\d+), (\d+) beyond", line)
        if m:  # whole-window percentile (virtual-clock workloads)
            n, beyond = int(m.group(1)), int(m.group(2))
            if beyond != n // 100:
                failures.append(f"{tag}: {beyond} beyond p99 of n={n}")
            if (beyond >= 10) != (value != "withheld"):
                failures.append(f"{tag}: p99 {value} with {beyond} beyond")
        elif "with >= 10 samples beyond" not in line:
            failures.append(f"{tag}: p99 row does not state its samples")
        if (value == "withheld") == ("commit_p99_ms" in result["metrics"]):
            failures.append(f"{tag}: withheld p99 must be absent from JSON")

    if trace == 1:
        drift = result["metrics"]["determinism.drift"]["value"]
        if drift != 0:
            if workload in KNOWN_DRIFT:
                print(f"  {tag}: fingerprint drift (known defect)")
            else:
                failures.append(f"{tag}: traced and untraced runs differ")
        for name, entry in result["metrics"].items():
            if any(name.startswith(p) for p in BYPASSED[workload]):
                if entry["value"] != 0:
                    failures.append(f"{tag}: bypassed {name} reads "
                                    f"{entry['value']}")


def main():
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    binary = run.build()
    failures = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            lines = run.run_binary(binary, [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", TINY_SECONDS, "--trace", str(trace), "--tiny"])
            before = len(failures)
            check_run(workload, trace, lines, failures)
            status = "ok" if len(failures) == before else "FAILED"
            print(f"{workload} trace={trace}: {status}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("self-test " + ("passed" if not failures else "failed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
