#!/usr/bin/env python3
"""End-to-end benchmark of the capped-node simulator and its management
planes. Run from the repository root:

    python3 perfbench/run.py --workload node_study|rack_corun|fleet_warm \\
        --seed N --seconds S --trace 0|1 [--record-golden]

Builds perfbench/ (the repository's src/ libraries plus the C++ driver)
into .bench_build/ with CMake in Release mode, runs the workload in one
driver process, checks its outputs, and prints a run manifest, a report
and, as the last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics,
the per-layer self-time report and the tracing overhead, and leaves the
Chrome trace in .bench_out/. --record-golden (default seed only) rewrites
this workload's entry in perfbench/golden.json from the run.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
DRIVER = BUILD / "perfbench_driver"
GOLDEN = HERE / "golden.json"
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code):
    """Exits non-zero without printing a result line."""
    log(msg)
    raise SystemExit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: nothing to build", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)


def source_digest():
    """sha256 over every file of src/ and perfbench/ (path and bytes)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_driver(args):
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("*.pcms"):  # memo stores of interrupted runs
        stale.unlink()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"driver exited with {done.returncode}", 3)
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_self_time_report(events, traced_iterations):
    times = analysis.self_times(analysis.subtree(events, "bench.iteration"))
    total = sum(t["ns"] for t in times.values()) or 1.0
    print(f"self time per traced iteration ({traced_iterations} traced):")
    for name, t in sorted(times.items(), key=lambda kv: -kv[1]["ns"]):
        print(f"  {name:<36} {t['ns'] / 1e9 / traced_iterations:10.4f} s"
              f" {100.0 * t['ns'] / total:6.2f} %  {t['calls']:>10} calls")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=analysis.WORKLOADS)
    p.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()

    build()
    raw = run_driver(args)
    try:
        analysis.check_build(raw["build"])
    except analysis.BuildRefused as e:
        fail(f"refusing to report: {e}", 4)

    manifest = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": raw["build"]["type"],
        "compiler": raw["build"]["compiler"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "params": raw["params"],
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if args.record_golden:
        if args.seed != analysis.DEFAULT_SEED:
            fail("--record-golden needs the default seed", 2)
        bad = [g for g in raw["groups"] if g["violations"] or g["unfinished"]]
        if bad:
            fail(f"not recording: {bad[0]['key']} failed", 5)
        golden[args.workload] = analysis.golden_entry(raw)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        log(f"recorded golden digests for {args.workload}")
    attempted, failed, reasons = analysis.evaluate(raw, golden)
    for r in reasons:
        log("FAIL " + r)

    setups = [round(analysis.sample_s(s), 4) for s in raw["setups"]]
    walls = [round(analysis.sample_s(it), 4) for it in raw["iterations"]]
    print(f"setup_s {setups}  iterations {walls}")
    if args.trace:
        trace = json.loads(Path(raw["trace_file"]).read_text())
        events = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        n_traced = sum(1 for it in raw["iterations"] if it["traced"])
        print_self_time_report(events, n_traced)
        values = analysis.per_layer(raw, events)
        catalogue = analysis.PER_LAYER
        print(f"trace: {raw['trace_file']} (Chrome trace JSON; open in Perfetto)")
    else:
        values = analysis.end_to_end(raw)
        catalogue = analysis.END_TO_END
    metrics = {spec[0]: {"value": values[spec[0]], "unit": spec[1]}
               for spec in catalogue}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
