#!/usr/bin/env python3
"""Compare a fresh bench_micro_space/bench_micro_time --json run against a
checked-in baseline and fail on regression.

Usage:
    bench_diff.py FRESH.json BASELINE.json [--max-ratio 2.0]
                  [--metric seconds] [--key space]

Rows are paired on (suite, grid, engine) inside the record array named by
--key ("space" for BENCH_space.json, "time" or "hard" for
BENCH_time.json; "hard" rows carry a per-row grid, the others inherit the
document's). The check fails (exit 1) when the MEDIAN of the per-row
fresh/baseline ratios for --metric exceeds --max-ratio. The deterministic
effort counters (nodes_expanded for space records, sat_calls and
schedules_tried for time records) are checked with the same threshold when
present — they catch search-behaviour regressions independently of machine
speed.

The speculative race's pool steals are only *noted* when a baseline
recorded them (sum > 0 over the paired rows) and the fresh run sums to
exactly 0: they legitimately vanish on a machine with fewer cores (no
overlap, no steals).

II quality gate, on every key: a row that is feasible in both runs fails
when the fresh run lands at a higher ii, or, where both rows carry
ii_lo/ii_hi, at a wider sound interval [ii_lo, ii_hi] — an II regression
fails even when the effort counters shrink. Rows without an outcome (space
records) are skipped.

Row-set drift: a baseline row missing from the fresh run fails the gate
(exit 1) when the fresh run covers that row's grid section — a case
silently stopped being benchmarked. Baseline grid sections the fresh run
does not produce at all are noted and skipped (a single-grid CI gate
against a multi-grid baseline), as are fresh rows with no baseline yet
(the first recording of a new section).
"""

import argparse
import json
import sys


def load_rows(path, key):
    with open(path) as fh:
        doc = json.load(fh)
    if key not in doc:
        sys.exit(f"error: {path} has no '{key}' record array "
                 f"(keys: {sorted(doc)})")
    rows = {}
    for row in doc[key]:
        # The "hard" section sweeps grids per suite, so the grid is part of
        # the row identity; other sections inherit the document grid.
        grid = row.get("grid", doc.get("grid", "-"))
        rows[(row["suite"], grid, row.get("engine", "-"))] = row
    return rows


def median(xs):
    xs = sorted(xs)
    if not xs:
        return None
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 == 1 else 0.5 * (xs[mid - 1] + xs[mid])


def check_metric(fresh, base, metric, max_ratio):
    """Return (median_ratio, worst_label, worst_ratio, compared) or None if
    the metric is absent from the paired rows."""
    ratios = []
    worst = (None, 0.0)
    for label, fresh_row in fresh.items():
        base_row = base.get(label)
        if base_row is None or metric not in fresh_row or metric not in base_row:
            continue
        f, b = float(fresh_row[metric]), float(base_row[metric])
        if b <= 0.0:
            continue  # sub-resolution baseline: a ratio would be noise
        ratio = f / b
        ratios.append(ratio)
        if ratio > worst[1]:
            worst = (label, ratio)
    if not ratios:
        return None
    return median(ratios), worst[0], worst[1], len(ratios)


def check_ii_quality(fresh, base):
    """Return (compared, failures) for the II quality gate: paired rows
    feasible on both sides; a failure is a higher fresh ii or, where both
    rows carry the interval, a wider ii_hi - ii_lo."""
    compared, failures = 0, []
    for label, row in sorted(fresh.items()):
        was = base.get(label)
        if (was is None or row.get("outcome") != "feasible"
                or was.get("outcome") != "feasible"):
            continue
        compared += 1
        if row["ii"] > was["ii"]:
            failures.append(f"{label}: ii {was['ii']} -> {row['ii']}")
        if ("ii_hi" in row and "ii_hi" in was
                and row["ii_hi"] - row["ii_lo"] > was["ii_hi"] - was["ii_lo"]):
            failures.append(f"{label}: interval [{was['ii_lo']}, "
                            f"{was['ii_hi']}] -> [{row['ii_lo']}, "
                            f"{row['ii_hi']}]")
    return compared, failures


def note_outcome_counters(fresh, base):
    """Robustness telemetry riding on bench rows: outcome/fault_retries
    (time records), memory_out and the tiled-layout locality
    counters tiles_skipped/domain_bytes_touched (space records). Tolerated
    when the baseline predates them (first recording), but noted; a fresh
    row that did not end clean/feasible is also noted loudly, since its
    timing reflects a cut-short run, not the search being measured."""
    new_fields = []
    unclean = []
    for label in sorted(fresh):
        row = fresh[label]
        base_row = base.get(label)
        # tiles_skipped / domain_bytes_touched are locality telemetry from
        # the tiled domain layout: note-only, never gated — their magnitude
        # tracks layout policy (and MONOMAP_TILES), not search behaviour.
        for field in ("outcome", "fault_retries", "memory_out",
                      "tiles_skipped", "domain_bytes_touched"):
            if field in row and (base_row is None or field not in base_row):
                if field not in new_fields:
                    new_fields.append(field)
        if (row.get("outcome") not in (None, "feasible")
                or row.get("fault_retries") or row.get("memory_out")):
            unclean.append(label)
    if new_fields:
        print(f"note: fresh rows carry outcome counter(s) {new_fields} "
              f"absent from the baseline; tolerated (first recording)")
    if unclean:
        print(f"note: {len(unclean)} fresh row(s) did not end clean/feasible "
              f"(degraded, faulted, memory-shed or budget-cut): "
              f"{unclean[:5]}{'...' if len(unclean) > 5 else ''}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="fresh --json run")
    parser.add_argument("baseline", help="checked-in baseline (BENCH_*.json)")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when median fresh/baseline exceeds this")
    parser.add_argument("--metric", default="seconds",
                        help="primary metric to compare (default: seconds)")
    parser.add_argument("--key", default="space",
                        help="record array name (space | time)")
    args = parser.parse_args()

    fresh = load_rows(args.fresh, args.key)
    base = load_rows(args.baseline, args.key)

    # Dropped rows fail loudly, but only inside grid sections the fresh run
    # actually covers: a CI gate that re-runs one grid against a multi-grid
    # baseline is comparing a deliberate subset, while a row that vanished
    # from a grid the fresh run DID produce means a case silently stopped
    # being benchmarked (suite renamed, engine dropped, found -> skipped).
    fresh_grids = {grid for (_, grid, _) in fresh}
    dropped = sorted(label for label in set(base) - set(fresh)
                     if label[1] in fresh_grids)
    if dropped:
        print(f"error: {len(dropped)} baseline row(s) missing from the "
              f"fresh run within its grid sections: {dropped[:5]}"
              f"{'...' if len(dropped) > 5 else ''}")
        return 1
    skipped_grids = sorted({grid for (_, grid, _) in set(base) - set(fresh)})
    if skipped_grids:
        print(f"note: baseline grid section(s) {skipped_grids} not covered "
              f"by this fresh run; comparing the covered sections only")
    # New rows (no baseline counterpart) are the first-recording path for a
    # freshly added grid section or suite: note them, compare the rest.
    added = sorted(set(fresh) - set(base))
    if added:
        print(f"note: {len(added)} fresh row(s) have no baseline yet: "
              f"{added[:5]}{'...' if len(added) > 5 else ''}")

    note_outcome_counters(fresh, base)

    # Deterministic effort counters are machine-independent; check whichever
    # one this record family carries alongside the primary metric.
    metrics = [args.metric]
    for counter in ("nodes_expanded", "sat_calls", "schedules_tried"):
        if counter != args.metric:
            metrics.append(counter)

    # Pool steals depend on thread scheduling and legitimately vanish on a
    # machine with fewer cores, so their going quiet is only noted. Rows
    # predating the counter simply lack the key and are skipped.
    base_steals = fresh_steals = 0.0
    for label, fresh_row in fresh.items():
        base_row = base.get(label)
        if (base_row is not None and "steals" in fresh_row
                and "steals" in base_row):
            base_steals += float(base_row["steals"])
            fresh_steals += float(fresh_row["steals"])

    failed = False
    checked = 0
    for metric in metrics:
        result = check_metric(fresh, base, metric, args.max_ratio)
        if result is None:
            continue
        checked += 1
        med, worst_label, worst_ratio, compared = result
        verdict = "FAIL" if med > args.max_ratio else "ok"
        if med > args.max_ratio:
            failed = True
        print(f"{verdict}: {metric}: median ratio {med:.3f} over {compared} "
              f"rows (limit {args.max_ratio:.2f}); worst {worst_ratio:.3f} "
              f"at {worst_label}")
    compared, ii_failures = check_ii_quality(fresh, base)
    if ii_failures:
        failed = True
        print(f"FAIL: ii: {len(ii_failures)} feasible row(s) regressed: "
              f"{ii_failures[:5]}{'...' if len(ii_failures) > 5 else ''}")
    elif compared:
        print(f"ok: ii: no II increase or interval widening over "
              f"{compared} feasible rows")
    if base_steals > 0 and fresh_steals == 0:
        print("note: steals: active in the baseline, 0 in this run "
              "(expected on a smaller machine; not gated)")
    if checked == 0:
        # A gate that compared nothing (metric missing from this record
        # family, or no paired rows) must not pass silently — that is how
        # a schema drift turns a regression check into a no-op.
        print(f"error: no comparable metric among {metrics} for key "
              f"'{args.key}' — the gate checked nothing")
        return 1
    if failed:
        print("regression detected: see the FAIL lines above")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
