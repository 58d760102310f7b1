#!/usr/bin/env python3
"""Paired A/B of perfbench/run.py between a base commit and HEAD.

Exports both commits into two trees outside the source tree (git
archive), then runs the chosen workloads alternately for N pairs,
switching which side runs first on every pair so that drift in the
host's speed falls on both sides alike. Each tree builds its own
perfbench driver on a warm-up run that is not counted. For every metric
the report gives each side's median and quartiles, the change of the
medians, and how many pairs HEAD won.

    python3 tools/ab_bench.py --base <commit> [--head HEAD] \\
        --workload fleet_warm [--workload rack_corun ...] [--pairs 10] \\
        [--seed 1] [--seconds 30] [--trace 0|1] [--workdir DIR] \\
        [--json OUT]

Whether a lower or a higher value wins comes from HEAD's BENCHMARK.json.
It changes no CI gate and writes nothing inside the source tree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(f"ab_bench: {msg}", file=sys.stderr, flush=True)


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def export(rev, workdir):
    """The tree of commit `rev` under `workdir`, exported once and reused."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = workdir / sha[:12]
    stamp = tree / ".ab_commit"
    if stamp.is_file() and stamp.read_text().strip() == sha:
        return sha, tree
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    stamp.write_text(sha + "\n")
    return sha, tree


def run(tree, workload, args, seconds):
    """One perfbench run in `tree`; its result line (the last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload, runs, better):
    base, head = runs["base"], runs["head"]
    n = len(base)
    print(f"\n{workload}: {n} pairs; correct base {sum(r['correct'] for r in base)}"
          f"/{n}, head {sum(r['correct'] for r in head)}/{n}; failed ops "
          f"base {sum(r['failed'] for r in base)}, head "
          f"{sum(r['failed'] for r in head)}")
    print(f"  {'metric':<36} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8} {'head wins':>9}")
    for name, spec in base[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        bq, hq = quartiles(b), quartiles(h)
        change = (f"{100.0 * (hq[1] - bq[1]) / bq[1]:+.1f}%" if bq[1] else "-")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name + ' (' + spec['unit'] + ')':<36} {fmt(bq):>30} "
              f"{fmt(hq):>30} {change:>8} {wins:>5}/{n}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="base commit (any git rev)")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path,
                   default=Path(tempfile.gettempdir()) / "pcap_ab_bench")
    p.add_argument("--json", type=Path, help="write every run's result here")
    args = p.parse_args()

    workdir = args.workdir.resolve()
    if workdir.is_relative_to(ROOT):
        raise SystemExit("--workdir must be outside the source tree")
    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        sha, tree = export(rev, workdir)
        sides[side] = tree
        log(f"{side} = {sha[:12]} in {tree}")
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}

    results = {}
    for workload in args.workload:
        for side, tree in sides.items():
            log(f"warm-up ({side}, builds the driver): {workload}")
            run(tree, workload, args, 1.0)
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run(sides[side], workload, args,
                                      args.seconds))
            log(f"{workload}: pair {pair + 1}/{args.pairs} done")
        results[workload] = runs
        report(workload, runs, better)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
