#!/usr/bin/env python3
"""Guard simulator throughput: compare a fresh micro_simspeed run against the
checked-in baseline (BENCH_simspeed.json) and fail on regression.

Absolute nanoseconds are not comparable across machines, so every case is
normalised by a calibration benchmark measured in the same run (BM_DramAccess:
a simple, fast-path-free case this repo's optimisations do not touch). For a
guarded case the gate checks the ratio of normalised times:

    rel = (now[case] / now[calib]) / (base[case] / base[calib])

rel > 1 + THRESHOLD (default 0.30) fails. Each case's time is the median
of its iteration entries, so a capture taken with --benchmark_repetitions
gates on the median repetition. The batched fast paths carry
within-run floors (OVERHEAD_CASES below): each one is measured against a
live per-access twin in the same run, so drifting back toward 1x means the
fast path died — no baseline entry can go stale.

Provenance: both JSONs must come from Release builds. The bench binary
stamps `context.repo_build_type` from its own NDEBUG state (the code under
test); older captures only carry `context.library_build_type`, which
reports how the system google-benchmark LIBRARY was built and reads
"debug" on distro packages even for Release builds of this repo — it is
used as a fallback only. A debug capture on either side fails loudly
unless --allow-debug is passed.

Usage: check_bench_regression.py BASELINE.json CURRENT.json
           [--threshold 0.30] [--allow-debug]
"""

import argparse
import json
import statistics
import sys

CALIBRATION = "BM_DramAccess"

# Cases guarded against >threshold normalised regression.
GUARDED = [
    "BM_CacheHit",
    "BM_CacheMissStream",
    "BM_TlbLookup",
    "BM_TlbHit",
    "BM_HierarchySequential",
    "BM_HierarchyStream",
    "BM_ContextLoad",
    "BM_ContextStreamLoad",
    "BM_ContextRmw",
    # Whole-fleet planning tick: 32 racks x 32 nodes through arrival,
    # admission, coupler round, placement and memoised chunk commit.
    "BM_FleetPlan1k",
    # Capped SMP co-run cells on the cooperative engine (500 ns quantum).
    "BM_SmpCoRun2",
    "BM_SmpCoRun4",
]

# Cases guarded at a per-case tight threshold, ratcheted below the global
# one. BM_SchedRunLane1 is the whole scheduler event loop on a classic
# one-lane rack: its baseline was recorded before the per-lane
# co-scheduling machinery landed, so the 5% ratchet pins the promise that
# schedules which never co-run do not pay for the lane/cell plumbing.
TIGHT_GUARDED = [
    ("BM_SchedRunLane1", 0.05),
]

# Within-run ratio gates against a reference case measured in the same run,
# so no baseline entry is needed and machine speed cancels out entirely.
# Entries are (case, reference, max ratio) or, when the two cases process a
# different number of items per iteration, (case, reference, max ratio,
# case items/iter, reference items/iter) — the ratio is then per item.
OVERHEAD_CASES = [
    # (case, reference, max ratio[, case_items, ref_items])
    ("BM_ContextLoadTelemetryIdle", "BM_ContextLoad", 1.02),
    ("BM_ContextLoadTelemetry", "BM_ContextLoad", 1.05),
    # The amenability policy's 1 W watt-filling replan vs the trivial
    # uniform split: measured ~160x (8 nodes, 200 W surplus); the limit
    # catches the loop going quadratic without flagging noise.
    ("BM_SchedPlanAmenability", "BM_SchedPlanUniform", 400.0),
    # Thermal subsystem overhead. The governor-off promise is the tight
    # one: a node carrying the RC network + fan as an observe-only shadow
    # (the study default) must stay within 5% of the plain single-RC node
    # over the same idle advance (the accumulate() window amortizes the
    # solver to ~2 ns/tick). The active governor adds a control plane on
    # top; its ceiling is looser and only catches blowups (measured ~1.1x).
    ("BM_ThermalTickShadow", "BM_ThermalTickOff", 1.05),
    ("BM_ThermalTick", "BM_ThermalTickOff", 1.5),
    # Chunk memoization floor: a memo hit (key + lookup + replay) must stay
    # >= 5x cheaper than the pure chunk simulation a miss pays.
    ("BM_SchedChunkMemoHit", "BM_SchedChunkMemoMiss", 0.2),
    # Predictor overhead on the whole scheduler run. Attached-but-disabled
    # must be free (the hook is three null/flag checks per event); fully
    # active (per-chunk phase observation + learner update + per-replan
    # proactive planning) must stay well under the chunk simulation it
    # steers.
    ("BM_SchedRunPredictorOff", "BM_SchedRunPredictorNone", 1.02),
    ("BM_SchedRunPredictorOn", "BM_SchedRunPredictorNone", 1.5),
    # Persistent chunk-memo store (DESIGN.md §17): the same small scheduler
    # study warm (store loaded, zero chunk misses, pure replay + re-save)
    # must stay >= 5x cheaper than cold (every chunk simulated + store
    # written).
    ("BM_SchedStudyWarmStore", "BM_SchedStudyColdStore", 0.2),
    # Arena-backed cell construction: building the per-cell Node graph on
    # the arena (recycled region, validity-gated uninit metadata) must stay
    # >= 1.3x cheaper than the pre-arena heap path (malloc + conservative
    # zero-fill). Measured ~16x; the 1.3x floor catches the arena dying.
    ("BM_ChunkMissArena", "BM_ChunkMissHeap", 0.769),
    # Whole-set sweep kernels: one page of resident lines swept through
    # probe/commit_line_sweep must stay >= 2x cheaper than the per-access
    # loop over the same lines. Ratio -> 1x means fast_span stopped
    # triggering.
    ("BM_SweepWholeSet", "BM_SweepWholeSetPerAccess", 0.5),
    # Batched stream floor, per item: access_stream's bulk grouping over a
    # stride-8 sequential walk vs the identical walk done with one access()
    # per op. The walk is miss-heavy (fresh line every 8 ops) and misses are
    # never batched, so the honest gain is modest (~1.25x measured); a ratio
    # at or above 1x means the bulk grouping died. The hot-path speedup
    # floor itself is the BM_SweepWholeSet pair above. Replaces the old
    # baseline-relative speedup floor (the frozen per-access-era baseline
    # rows it compared against could not survive a baseline recapture).
    ("BM_HierarchyStream", "BM_HierarchySequential", 0.9, 4096, 1),
]


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    context = doc.get("context", {})
    # The bench binary stamps repo_build_type (NDEBUG state of the code
    # under test). library_build_type describes the system benchmark
    # library and is only a fallback for captures predating the stamp.
    build_type = context.get(
        "repo_build_type", context.get("library_build_type", "unknown"))
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        # Benchmarks registered with an explicit MinTime() get the setting
        # appended to their name (e.g. "BM_SmpCoRun2/min_time:1.000");
        # strip it so gates refer to the plain case name.
        name = b["name"].split("/min_time:")[0]
        runs.setdefault(name, []).append(float(b["real_time"]))
    # A capture with --benchmark_repetitions=N holds N iteration entries
    # per case; gate on their median so one noisy repetition cannot fail
    # (or pass) a case.
    times = {name: statistics.median(values) for name, values in runs.items()}
    return times, build_type


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument(
        "--allow-debug", action="store_true",
        help="permit debug-build captures (timings are not comparable; "
             "never use for ratcheting a baseline)")
    args = parser.parse_args()

    base, base_build = load_times(args.baseline)
    now, now_build = load_times(args.current)

    for name, build in (("baseline", base_build), ("current", now_build)):
        if build != "release":
            print(f"{'warning' if args.allow_debug else 'error'}: {name} "
                  f"capture is a {build} build — timings are not "
                  f"release-comparable")
            if not args.allow_debug:
                print("FAIL: refusing debug-build capture "
                      "(pass --allow-debug to override)")
                return 2

    for name, times in (("baseline", base), ("current", now)):
        if CALIBRATION not in times:
            print(f"error: {name} run lacks calibration case {CALIBRATION}")
            return 2
    scale = now[CALIBRATION] / base[CALIBRATION]
    print(f"calibration {CALIBRATION}: baseline {base[CALIBRATION]:.1f} ns, "
          f"current {now[CALIBRATION]:.1f} ns (machine scale {scale:.2f}x)")

    failed = False
    for case in GUARDED:
        if case not in base or case not in now:
            print(f"error: case {case} missing "
                  f"({'baseline' if case not in base else 'current'})")
            failed = True
            continue
        rel = (now[case] / now[CALIBRATION]) / (base[case] / base[CALIBRATION])
        verdict = "ok"
        if rel > 1.0 + args.threshold:
            verdict = f"REGRESSION (>{args.threshold:.0%})"
            failed = True
        print(f"  {case}: {base[case]:.1f} -> {now[case]:.1f} ns, "
              f"normalised {rel:.2f}x  {verdict}")

    for case, threshold in TIGHT_GUARDED:
        if case not in base or case not in now:
            print(f"error: case {case} missing "
                  f"({'baseline' if case not in base else 'current'})")
            failed = True
            continue
        rel = (now[case] / now[CALIBRATION]) / (base[case] / base[CALIBRATION])
        verdict = "ok"
        if rel > 1.0 + threshold:
            verdict = f"REGRESSION (>{threshold:.0%})"
            failed = True
        print(f"  {case}: {base[case]:.1f} -> {now[case]:.1f} ns, "
              f"normalised {rel:.2f}x (limit {1.0 + threshold:.2f}x)  "
              f"{verdict}")

    for entry in OVERHEAD_CASES:
        case, reference, limit = entry[0], entry[1], entry[2]
        case_items, ref_items = (entry[3], entry[4]) if len(entry) == 5 else (1, 1)
        if case not in now or reference not in now:
            print(f"error: current run lacks {case} or {reference}")
            failed = True
            continue
        ratio = (now[case] / case_items) / (now[reference] / ref_items)
        per_item = " per item" if (case_items, ref_items) != (1, 1) else ""
        verdict = "ok"
        if ratio > limit:
            verdict = f"TOO SLOW (> {limit:.2f}x {reference})"
            failed = True
        print(f"  {case}: {ratio:.3f}x {reference}{per_item} "
              f"(limit {limit:.2f}x)  {verdict}")

    if failed:
        print("FAIL: simulator speed gate")
        return 1
    print("PASS: simulator speed gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
