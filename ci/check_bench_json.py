#!/usr/bin/env python3
"""Checks what an m-bench BENCH file promises (DESIGN.md §2).

Usage: ci/check_bench_json.py FILE...

Each file must parse as JSON and carry the machine block (hardware_threads,
compiler, build_type, git_sha) at the top level. No object whose "threads"
or "workers" count exceeds hardware_threads may hold a time, rate, latency
or speed-up key, at any depth. Exits 1 naming every violation.
"""
import json
import re
import sys

MACHINE_KEYS = ("hardware_threads", "compiler", "build_type", "git_sha")
# seconds, *_s, *_ms, *_ms_per_query, *_per_sec and every *speedup* key.
TIMING_KEY = re.compile(r"seconds|_s$|_ms($|_)|_per_sec$|speedup")


def timing_keys(value):
    """Every timing key in value, at any depth."""
    if isinstance(value, dict):
        for key, child in value.items():
            if TIMING_KEY.search(key):
                yield key
            yield from timing_keys(child)
    elif isinstance(value, list):
        for child in value:
            yield from timing_keys(child)


def oversubscribed_timings(value, hardware_threads, path="$"):
    """(path, key) for each timing key under a row above hardware_threads."""
    if isinstance(value, dict):
        count = max(value.get("threads", 0), value.get("workers", 0))
        if count > hardware_threads:
            for key in timing_keys(value):
                yield path, key
            return
        for key, child in value.items():
            yield from oversubscribed_timings(child, hardware_threads, f"{path}.{key}")
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from oversubscribed_timings(child, hardware_threads, f"{path}[{i}]")


def check(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"]
    errors = [f"{path}: no top-level '{key}'" for key in MACHINE_KEYS if key not in doc]
    threads = doc.get("hardware_threads")
    if not isinstance(threads, int) or threads < 1:
        errors.append(f"{path}: hardware_threads is {threads!r}, not a positive integer")
        return errors
    for row, key in oversubscribed_timings(doc, threads):
        errors.append(f"{path}: {row} runs over {threads} hardware threads but reports '{key}'")
    return errors


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = [e for path in paths for e in check(path)]
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{len(paths)} BENCH files keep the machine block and the thread rule")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
