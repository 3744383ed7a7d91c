#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at smoke size, both modes.

    python3 perfbench/selftest.py

Checks the output contract against BENCHMARK.json: the last stdout line is
{"correct", "attempted", "failed", "metrics"} with every declared metric
and unit, outputs are correct, nothing failed, and every end-to-end metric
is positive. Also checks that a bad workload name is refused with a
nonzero exit and no result. Takes well under a minute once built.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    # serve_reads is not gated by BENCHMARK.json (see METRICS.md) but is
    # kept working.
    for workload in [w["name"] for w in spec["workloads"]] + ["serve_reads"]:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--smoke")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: exit {proc.returncode}, keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{label}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')} failed={result.get('failed')}")
            got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if got != declared[trace]:
                problems.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace == "0":
                for name, metric in result.get("metrics", {}).items():
                    if not metric["value"] > 0:
                        problems.append(f"{label}: {name} = {metric['value']} is not positive")
            print(f"ok   {label}" if not any(p.startswith(label) for p in problems) else f"FAIL {label}",
                  flush=True)
    refused = run("--workload", "no_such_workload", "--smoke")
    if refused.returncode == 0 or refused.stdout.strip().endswith("}"):
        problems.append("an unknown workload was not refused")
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
