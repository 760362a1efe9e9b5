#!/usr/bin/env python3
"""Require a fresh bench_micro_space --json run to repeat the recorded
search trace of every bitset row on one grid.

Usage:
    space_trace_gate.py FRESH.json BASELINE.json --grid N

The bitset search is deterministic, so each (suite, N, "bitset") row of
BASELINE must appear in FRESH with equal found, nodes_expanded,
backtracks, backjumps and max_depth. Exits 1 on the first difference or
missing row, and when BASELINE has no such rows at all. Timings and the
trail and byte telemetry are not compared.
"""

import argparse
import json
import sys

FIELDS = ("found", "nodes_expanded", "backtracks", "backjumps", "max_depth")


def bitset_rows(path, grid):
    with open(path) as fh:
        rows = json.load(fh)["space"]
    return {r["suite"]: r for r in rows
            if r["grid"] == grid and r["engine"] == "bitset"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--grid", type=int, required=True)
    args = parser.parse_args()
    fresh = bitset_rows(args.fresh, args.grid)
    base = bitset_rows(args.baseline, args.grid)
    if not base:
        print(f"baseline has no {args.grid}x{args.grid} bitset rows")
        return 1
    failures = 0
    for suite, row in sorted(base.items()):
        if suite not in fresh:
            print(f"{suite}: missing from the fresh run")
            failures += 1
            continue
        for field in FIELDS:
            if fresh[suite][field] != row[field]:
                print(f"{suite}: {field} {fresh[suite][field]} != "
                      f"recorded {row[field]}")
                failures += 1
    print(f"{len(base)} {args.grid}x{args.grid} bitset rows, "
          f"{failures} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
