"""Pure functions behind perfbench/run.py: the metric catalogue, the
correctness gate, build refusal, percentiles and span self time.

Nothing here runs the simulator; run.py feeds these the JSON document the
C++ driver prints and the Chrome trace it writes.
"""

import statistics

DEFAULT_SEED = 1
WORKLOADS = ("node_study", "rack_corun", "fleet_warm")

# (name, unit, better, bound): what a user of each workload waits for or
# pays. Reported from untraced runs only.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
)

# (name, unit, better): one layer each, from the traced run. A layer a
# workload does not exercise reads 0.
PER_LAYER = (
    ("sim_mips", "MIPS", "higher"),
    ("chunks_per_s", "1/s", "higher"),
    ("paper_err", "ln-ratio", "lower"),
    ("sim.ns_per_access.stereo", "ns", "lower"),
    ("sim.ns_per_access.sire", "ns", "lower"),
    ("sim.ns_per_access.stride", "ns", "lower"),
    ("sim.run_s.p50", "s", "lower"),
    ("sim.run_s.max", "s", "lower"),
    ("sim.instructions", "count", "lower"),
    ("cache.l1d.accesses", "count", "lower"),
    ("cache.l1d.miss_rate", "ratio", "lower"),
    ("cache.l2.accesses", "count", "lower"),
    ("cache.l2.miss_rate", "ratio", "lower"),
    ("cache.l3.accesses", "count", "lower"),
    ("cache.l3.miss_rate", "ratio", "lower"),
    ("cache.dtlb.misses", "count", "lower"),
    ("cache.itlb.misses", "count", "lower"),
    ("mem.dram.accesses", "count", "lower"),
    ("mem.dram.row_hit_rate", "ratio", "higher"),
    ("core.bmc.ticks", "count", "lower"),
    ("core.bmc.tick_ns", "ns", "lower"),
    ("core.bmc.share", "ratio", "lower"),
    ("sched.characterize_s", "s", "lower"),
    ("sched.simulate_chunk_us", "us", "lower"),
    ("sched.simulate_corun_cell_us", "us", "lower"),
    ("sched.memo_hit_ratio", "ratio", "higher"),
    ("sched.corun_cells", "count", "lower"),
    ("sched.chunks", "count", "higher"),
    ("sched.replans", "count", "lower"),
    ("sched.store_entries_loaded", "count", "higher"),
    ("core.dcm.cap_updates", "count", "lower"),
    ("core.dcm.cap_update_failures", "count", "lower"),
    ("ipmi.retries", "count", "lower"),
    ("ipmi.failed_exchanges", "count", "lower"),
    ("fleet.tick_us.p50", "us", "lower"),
    ("fleet.tick_us.p95", "us", "lower"),
    ("fleet.tick_us.tail", "us", "lower"),
    ("fleet.tick_us.tail_pct", "pct", "higher"),
    ("fleet.tick_samples", "count", "higher"),
    ("fleet.tick_us_per_node", "us", "lower"),
    ("fleet.construct_s", "s", "lower"),
    ("fleet.finish_s", "s", "lower"),
    ("fleet.cap_pushes", "count", "lower"),
    ("fleet.withheld_rounds", "count", "lower"),
    ("fleet.admission_deferrals", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("self_s.core.CappedRunner.run", "s", "lower"),
    ("self_s.core.Bmc.on_control_tick", "s", "lower"),
    ("self_s.sched.ClusterScheduler.ctor", "s", "lower"),
    ("self_s.sched.ClusterScheduler.run", "s", "lower"),
    ("self_s.fleet.DatacenterManager.ctor", "s", "lower"),
    ("self_s.fleet.DatacenterManager.step", "s", "lower"),
    ("self_s.fleet.DatacenterManager.finish", "s", "lower"),
)

TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

# Host seconds of one run of the driver's reference kernel
# (reference_seconds() in driver.cpp) on the 4-vCPU Xeon VM the benchmark
# was written on, typical of its steady spells. End-to-end times are
# reported at this reference speed.
REFERENCE_S = 0.0035

# How a host slowdown of the kernel carries over to the simulator: when
# the kernel takes r times longer, the workloads take ~r ** ELASTICITY
# times longer. Fitted exponents on that VM (log lap time against log
# kernel time within a run, per lap position or per iteration) were
# 1.7-2.3 on every workload.
ELASTICITY = 2.0


class BuildRefused(Exception):
    """The driver binary is not an optimized, sanitizer-free build."""


def check_build(build):
    """Refuses numbers from a debug, unoptimized or sanitizer build, as
    tools/check_bench_regression.py refuses debug captures."""
    kind = str(build.get("type", "")).strip()
    if kind.lower() not in ("release", "relwithdebinfo", "minsizerel"):
        raise BuildRefused(f"build type '{kind or 'none'}' is not optimized")
    if not build.get("optimized") or not build.get("ndebug"):
        raise BuildRefused("driver compiled without optimization or with asserts")
    if str(build.get("sanitizers", "")).strip():
        raise BuildRefused(f"sanitizer build ({build['sanitizers'].strip()})")


def percentile(samples, pct):
    """Linear-interpolated percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    rank = (len(xs) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(samples):
    """(pct, value) for the highest of TAIL_CANDIDATES that still has at
    least ten samples beyond it, or None when even the median has fewer."""
    n = len(samples)
    best = None
    for pct in TAIL_CANDIDATES:
        if round(n * (100.0 - pct) / 100.0, 6) >= 10.0:
            best = pct
    return None if best is None else (best, percentile(samples, best))


def self_times(events):
    """Self time per span name, in nanoseconds, from Chrome trace events.

    A span's self time is its duration minus its direct children's
    durations and minus the time of its aggregated children (args `agg`,
    `agg_count`, `agg_ns`: spans summed in place rather than kept one by
    one). An aggregate counts as self time of its own name. Returns
    {name: {"ns", "calls"}}.
    """
    child_ns = {}
    for ev in events:
        parent = ev["args"].get("parent", -1)
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0.0) + ev["dur"] * 1e3
    out = {}

    def add(name, ns, calls):
        slot = out.setdefault(name, {"ns": 0.0, "calls": 0})
        slot["ns"] += ns
        slot["calls"] += calls

    for ev in events:
        args = ev["args"]
        agg_ns = args.get("agg_ns", 0.0)
        add(ev["name"], ev["dur"] * 1e3 - child_ns.get(args["id"], 0.0) - agg_ns, 1)
        if "agg" in args:
            add(args["agg"], agg_ns, args["agg_count"])
    return out


def subtree(events, root_name):
    """Events under (and including) every span named `root_name`."""
    by_id = {ev["args"]["id"]: ev for ev in events}
    keep = []
    for ev in events:
        cur = ev
        while cur is not None:
            if cur["name"] == root_name:
                keep.append(ev)
                break
            cur = by_id.get(cur["args"].get("parent", -1))
    return keep


def evaluate(raw, golden):
    """Correctness gate. Returns (attempted, failed, reasons).

    Every op of a group that broke an invariant fails, as does every
    unfinished op. At the default seed each group's digest must also equal
    the golden one recorded for the same workload parameters; at other
    seeds only the invariants apply (a held-out seed has no golden).
    """
    reasons = []
    attempted = failed = 0
    expect = None
    if raw["seed"] == DEFAULT_SEED:
        entry = golden.get(raw["workload"])
        if entry is None:
            reasons.append("no golden digests for this workload")
            expect = {}
        elif entry.get("params") != raw["params"]:
            reasons.append("golden digests were recorded for other parameters")
            expect = {}
        else:
            expect = entry["digests"]
    for g in raw["groups"]:
        attempted += g["ops"]
        bad = list(g["violations"])
        if expect is not None and expect.get(g["key"]) != g["digest"]:
            bad.append(f"digest {g['digest']} != golden {expect.get(g['key'])}")
        if bad:
            failed += g["ops"]
            reasons.extend(f"{g['key']}: {b}" for b in bad)
        elif g["unfinished"]:
            failed += g["unfinished"]
            reasons.append(f"{g['key']}: {g['unfinished']} ops unfinished")
    return attempted, failed, reasons


def golden_entry(raw):
    """The golden record a default-seed run establishes."""
    digests = {}
    for g in raw["groups"]:
        if digests.setdefault(g["key"], g["digest"]) != g["digest"]:
            raise ValueError(f"{g['key']}: digests differ within one run")
    return {"params": raw["params"], "digests": digests}


def _walls(raw, traced):
    return [sample_s(it) for it in raw["iterations"] if bool(it["traced"]) == traced]


def at_reference_speed(seconds, ref_s):
    """Host seconds scaled to the reference speed: what the interval would
    have taken on a host whose reference kernel takes REFERENCE_S."""
    return seconds * (REFERENCE_S / ref_s) ** ELASTICITY


def sample_s(sample):
    """Host seconds of one set-up or iteration: the sum of its laps."""
    return sum(sample["lap_s"])


def sample_ref_s(sample):
    """One set-up or iteration at the reference speed: each lap scaled by
    the reference kernel time around it."""
    return sum(at_reference_speed(s, ref)
               for s, ref in zip(sample["lap_s"], sample["lap_ref_s"]))


def end_to_end(raw):
    """The END_TO_END values of an untraced run: the median iteration and
    the median set-up, each at the reference speed."""
    walls = [sample_ref_s(it) for it in raw["iterations"] if not it["traced"]]
    setups = [sample_ref_s(s) for s in raw["setups"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, events):
    """The PER_LAYER values of a traced run (0 for layers not exercised)."""
    c = raw["counts"]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    untraced = statistics.median(_walls(raw, False))
    traced_walls = _walls(raw, True)
    m["trace.overhead_s"] = statistics.median(traced_walls) - untraced

    def ratio(a, b):
        return c.get(a, 0.0) / c[b] if c.get(b) else 0.0

    # rack_corun's instruction count is its probe cells', not its run's.
    if raw["workload"] == "node_study":
        m["sim_mips"] = c["sim.instructions"] / untraced / 1e6
    else:
        m["chunks_per_s"] = c.get("sched.chunks", 0.0) / untraced
    for key in ("paper_err", "sim.instructions", "cache.l1d.accesses",
                "cache.l2.accesses", "cache.l3.accesses", "cache.dtlb.misses",
                "cache.itlb.misses", "mem.dram.accesses", "core.bmc.ticks",
                "sched.characterize_s", "sched.corun_cells", "sched.chunks",
                "sched.replans", "sched.store_entries_loaded",
                "core.dcm.cap_updates", "core.dcm.cap_update_failures",
                "ipmi.retries", "ipmi.failed_exchanges", "fleet.cap_pushes",
                "fleet.withheld_rounds", "fleet.admission_deferrals"):
        m[key] = float(c.get(key, 0.0))
    for level in ("l1d", "l2", "l3"):
        m[f"cache.{level}.miss_rate"] = ratio(f"cache.{level}.misses",
                                              f"cache.{level}.accesses")
    m["mem.dram.row_hit_rate"] = ratio("mem.dram.row_hits", "mem.dram.accesses")
    lookups = c.get("sched.memo_hits", 0.0) + c.get("sched.memo_misses", 0.0)
    if lookups:
        m["sched.memo_hit_ratio"] = c["sched.memo_hits"] / lookups

    measured = subtree(events, "bench.iteration")
    n_traced = len(traced_walls)
    for name, st in self_times(measured).items():
        key = "self_s." + name
        if key in m:
            m[key] = st["ns"] / 1e9 / n_traced

    cells = [ev for ev in measured if ev["name"] == "core.CappedRunner.run"]
    if cells:
        run_s = [ev["dur"] / 1e6 for ev in cells]
        m["sim.run_s.p50"] = percentile(run_s, 50)
        m["sim.run_s.max"] = max(run_s)
        bmc_ns = sum(ev["args"]["agg_ns"] for ev in cells)
        ticks = sum(ev["args"]["agg_count"] for ev in cells)
        m["core.bmc.tick_ns"] = bmc_ns / ticks if ticks else 0.0
        m["core.bmc.share"] = bmc_ns / (sum(run_s) * 1e9)
        for app in ("stereo", "sire", "stride"):
            mine = [ev for ev in cells if ev["args"]["app"] == app]
            accesses = sum(ev["args"]["l1_accesses"] for ev in mine)
            if accesses:
                engine_ns = sum(ev["dur"] * 1e3 - ev["args"]["agg_ns"] for ev in mine)
                m[f"sim.ns_per_access.{app}"] = engine_ns / accesses

    for name, key in (("sched.simulate_chunk", "sched.simulate_chunk_us"),
                      ("sched.simulate_corun_cell", "sched.simulate_corun_cell_us")):
        durs = [ev["dur"] for ev in events if ev["name"] == name]
        if durs:
            m[key] = percentile(durs, 50)

    ticks_us = [ev["dur"] for ev in measured if ev["name"] == "fleet.DatacenterManager.step"]
    if ticks_us:
        m["fleet.tick_us.p50"] = percentile(ticks_us, 50)
        m["fleet.tick_us.p95"] = percentile(ticks_us, 95)
        tail = tail_percentile(ticks_us)
        if tail:
            m["fleet.tick_us.tail_pct"], m["fleet.tick_us.tail"] = tail
        m["fleet.tick_samples"] = float(len(ticks_us))
        m["fleet.tick_us_per_node"] = m["fleet.tick_us.p50"] / c["fleet.nodes"]
    for name, key in (("fleet.DatacenterManager.ctor", "fleet.construct_s"),
                      ("fleet.DatacenterManager.finish", "fleet.finish_s")):
        durs = [ev["dur"] / 1e6 for ev in measured if ev["name"] == name]
        if durs:
            m[key] = statistics.median(durs)
    return m
