#!/usr/bin/env python3
"""Benchmark of the Minnow simulator: host time-to-result of one figure
point, and the simulated machine's cycles and L2 MPKI, per workload.

    python3 perfbench/run.py --workload pr-obim-16 --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from anywhere inside a checkout; it builds perfbench_driver (the
simulator library from src/ plus perfbench/driver.cc, Release -O2)
under $CARGO_TARGET_DIR (default .bench_build) and then runs figure
points, one single-threaded driver process per point, until --seconds
have passed. A run always finishes at least one round: one point per
input of the workload.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
round and then --host-profile points, prints the per-layer metrics and
writes the spans and the per-layer table under
$CARGO_TARGET_DIR/perfbench-trace/. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every point is one attempted operation; it fails when the simulator
exits non-zero, times out, reports verified == false or timedOut, or
its simulated results differ from another point on the same input.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

POINT_TIMEOUT_S = 150

# Each run measures a fixed list of inputs, sub-seeds seed*inputs + k,
# so the simulated metrics are means over the same inputs on every run
# of one seed. pr-obim-16's work moves 15% from seed to seed, so it
# averages five inputs; SSSP's moves about 1%, so the SSSP twins run
# one input (the same graph) and take a median over all their points.
WORKLOADS = {
    "sssp-minnowpf-64": {
        "args": ["--workload=sssp", "--scale=4", "--config=minnow-pf",
                 "--threads=64"],
        "inputs": 1,
    },
    "pr-obim-16": {
        "args": ["--workload=pr", "--scale=1", "--config=obim",
                 "--threads=16", "--cores=16"],
        "inputs": 5,
    },
    "sssp-minnowpf-64-sampled": {
        "args": ["--workload=sssp", "--scale=4", "--config=minnow-pf",
                 "--threads=64", "--stats-interval=2000"],
        "inputs": 1,
    },
}

HOSTPROF_LAYERS = [  # metric prefix, hostprof stat prefix
    ("cpu", "core"), ("mem", "memory"), ("minnow", "engine"),
    ("worklist", "worklist"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure and build the driver; returns its path."""
    if not (ROOT / "src" / "harness" / "workloads.hh").is_file():
        sys.exit("perfbench: the simulator sources (src/) are not in "
                 f"{ROOT}; run from a full checkout")
    bdir = build_dir() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j", jobs]]
    with open(bdir / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.exit(f"perfbench: build failed, see {bdir}/build.log")
    return bdir / "perfbench_driver"


def host_info(hw_counters):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "hw_counters": hw_counters}


def sim_signature(point):
    """Everything simulated a point reports; host-side stats excluded."""
    stats = {k: v for k, v in point["stats"].items() if k != "hostprof"}
    return (point["cycles"], point["instructions"], point["tasks"],
            point["pops"], point["l2Mpki"], json.dumps(stats, sort_keys=True))


class Runner:
    """Runs points and keeps the failure count."""

    def __init__(self, driver, workload, spans_dir):
        self.driver = driver
        self.workload = workload
        self.spans_dir = spans_dir
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # sub-seed -> sim_signature of its first point

    def point(self, seed, traced):
        """One figure point in its own process; None when it failed."""
        self.attempted += 1
        cmd = [str(self.driver), *WORKLOADS[self.workload]["args"],
               f"--seed={seed}"]
        if traced:
            cmd.append("--host-profile")
        spans = None
        if self.spans_dir:
            spans = self.spans_dir / f"point{self.attempted}.json"
            cmd.append(f"--spans={spans}")
        why = None
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=POINT_TIMEOUT_S, cwd=ROOT)
            if p.returncode != 0:
                why = f"exit code {p.returncode}: {p.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            why = f"no result within {POINT_TIMEOUT_S} s"
        if why is None:
            r = json.loads(p.stdout.strip().splitlines()[-1])
            sig = sim_signature(r)
            ref = self.reference.setdefault(seed, sig)
            if not r["verified"] or r["timedOut"]:
                why = (f"verified={r['verified']} "
                       f"timedOut={r['timedOut']}")
            elif sig != ref:
                why = ("simulated results differ from the first point "
                       "on this input" + (" (traced)" if traced else ""))
        if why is not None:
            self.failed += 1
            log(f"{self.workload} seed {seed}: point failed: {why}")
            return None
        r["traced"] = traced
        r["spansFile"] = str(spans) if spans else None
        return r


def measure(runner, subseeds, seconds, trace):
    """Points by sub-seed, untraced and traced. One untraced round
    always runs; then points cycle over the inputs (traced when trace
    is set, at least one) while the next should end within seconds."""
    deadline = time.monotonic() + seconds
    points = {(s, t): [] for s in subseeds for t in (False, True)}
    took = {}

    def run(s, traced):
        start = time.monotonic()
        p = runner.point(s, traced)
        took[s, traced] = time.monotonic() - start
        if p is not None:
            points[s, traced].append(p)

    for s in subseeds:
        run(s, False)
    traced = bool(trace)
    for i in itertools.count():
        s = subseeds[i % len(subseeds)]
        # A traced point takes longer than an untraced one.
        guess = took.get((s, traced), took[s, False] * (2 if traced else 1))
        if not (traced and i == 0) and time.monotonic() + guess > deadline:
            break
        run(s, traced)
    return ({s: points[s, False] for s in subseeds},
            {s: points[s, True] for s in subseeds})


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def with_units(values):
    unit = units()
    return {k: {"value": v, "unit": unit[k]} for k, v in values.items()}


def mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(untraced):
    per_input = [ps for ps in untraced.values() if ps]
    if not per_input:
        return {}
    all_points = [p for ps in per_input for p in ps]
    setups = [t for p in all_points for t in p["setupS"]]
    wall_s = [statistics.median(statistics.median(p["setupS"]) + p["runS"]
                                for p in ps) for ps in per_input]
    values = {
        "wall_s": mean(wall_s),
        "setup_s": statistics.median(setups),
        # Per point, so that one slow point does not move the median.
        "sim_kips": statistics.median(p["instructions"] / p["runS"] / 1e3
                                      for p in all_points),
        "peak_rss_mb": statistics.median(p["peakRssKb"] for p in all_points)
        * 1024 / 1e6,
        "sim_cycles": mean([ps[0]["cycles"] for ps in per_input]),
        "l2_mpki": mean([ps[0]["l2Mpki"] for ps in per_input]),
    }
    return with_units(values)


def groups_matching(stats, prefix):
    """Stat groups named prefix<N> (core0, minnow3, ...)."""
    return [g for name, g in stats.items()
            if name.startswith(prefix) and name[len(prefix):].isdigit()]


def sim_layers(point):
    """Exact simulated per-layer counts of one untraced point."""
    st = point["stats"]
    cores = groups_matching(st, "core")
    engines = groups_matching(st, "minnow")
    mem = st.get("mem", {})
    wl = st.get("worklist", {})

    def core_sum(key):
        return sum(g.get(key, 0) for g in cores)

    def engine_sum(key):
        return sum(g.get(key, 0) for g in engines)

    dequeues = engine_sum("dequeues")
    used = mem.get("prefetchUsed", 0)
    pop_latency = wl.get("popLatency")
    return {
        "cpu.app_cycles": core_sum("appCycles"),
        "cpu.worklist_cycles": core_sum("worklistCycles"),
        "cpu.idle_cycles": core_sum("idleCycles"),
        "cpu.branch_stall_cycles": core_sum("branchStallCycles"),
        "cpu.fence_stall_cycles": core_sum("fenceStallCycles"),
        "cpu.ipc": point["instructions"] / point["cycles"],
        "mem.l2_demand_misses": mem.get("l2DemandMisses", 0),
        "mem.l3_hits": mem.get("l3Hits", 0),
        "mem.dram_accesses": mem.get("dramAccesses", 0),
        "mem.dram_queue_cycles": mem.get("dramQueueCycles", 0),
        "mem.noc_messages": mem.get("nocMessages", 0),
        "mem.invalidations": mem.get("invalidationsSent", 0),
        "mem.prefetch_accuracy": mem.get("prefetchAccuracy", 0),
        "mem.prefetch_coverage": mem.get("prefetchCoverage", 0),
        "mem.prefetch_late_frac":
            mem.get("prefetchUsedLate", 0) / used if used else 0.0,
        "minnow.dequeues": dequeues,
        "minnow.local_hit_rate":
            engine_sum("dequeueLocalHits") / dequeues if dequeues else 0.0,
        "minnow.dequeue_blocks": engine_sum("dequeueBlocks"),
        "minnow.dq_wait_cycles": engine_sum("dqWaitCycles"),
        "minnow.credit_stalls": engine_sum("creditStalls"),
        "minnow.threadlets": engine_sum("threadletsSpawned"),
        "minnow.prefetch_cancelled": engine_sum("prefetchCancelled"),
        "minnow.cu_busy_cycles": engine_sum("cuBusyCycles"),
        "worklist.pops": point["pops"],
        "worklist.pop_latency_mean":
            pop_latency["mean"] if isinstance(pop_latency, dict) else 0.0,
        "worklist.spills": wl.get("spills", 0),
        "worklist.fills": wl.get("fills", 0),
        # Minnow counts the pops cores do in software; with a software
        # worklist (OBIM) every pop is one.
        "worklist.software_pops": wl.get("softwarePops", point["pops"]),
        "galois.tasks": point["tasks"],
    }


def layer_rows(traced_points):
    """Per-layer self time of the traced points, summed: (name, self
    seconds, calls). The rows partition the points' spans exactly."""
    n = len(traced_points)
    point_s = build_s = run_s = loop_s = 0.0
    builds = 0
    sums = {}
    for p in traced_points:
        hp = p["stats"]["hostprof"]
        for k, v in hp.items():
            if isinstance(v, (int, float)):
                sums[k] = sums.get(k, 0) + v
        with open(p["spansFile"]) as f:
            spans = json.load(f)["spans"]
        for s in spans:
            dur = (s["end_ns"] - s["start_ns"]) * 1e-9
            if s["name"] == "point":
                point_s += dur
            elif s["name"] == "graph.build":
                build_s += dur
                builds += 1
            elif s["name"] == "harness.run":
                run_s += dur
        loop_s += hp["wallNs"] * 1e-9
    rows = [("graph.build (makeWorkload)", build_s, builds),
            ("harness (runExperiment outside the event loop)",
             run_s - loop_s, n)]
    for name, key in HOSTPROF_LAYERS:
        rows.append((name, sums[key + "Ns"] * 1e-9, sums[key + "Calls"]))
    rows.append(("other (event loop, coroutine glue)",
                 sums["otherNs"] * 1e-9, sums["events"]))
    rows.append(("bench (driver between spans)",
                 point_s - build_s - run_s, n))
    return rows, point_s, sums


def per_layer(untraced, traced):
    per_input = [ps for ps in untraced.values() if ps]
    traced_points = [p for ps in traced.values() for p in ps]
    if not per_input or not traced_points:
        return {}, None
    firsts = [ps[0] for ps in per_input]
    values = {
        "graph.build_s": statistics.median(
            t for ps in per_input for p in ps for t in p["setupS"]),
        "harness.run_s": mean([p["runS"] for p in firsts]),
        "harness.stats_json_mb": mean([p["statsJsonBytes"] / 1e6
                                       for p in firsts]),
        "host.allocs": mean([p["allocs"] for p in firsts]),
        "host.alloc_mb": mean([p["allocBytes"] / 1e6 for p in firsts]),
    }
    rows, point_s, sums = layer_rows(traced_points)
    wall = sums["wallNs"]
    values["sim.events"] = sums["events"] / len(traced_points)
    values["sim.events_per_s"] = sums["events"] / (wall * 1e-9)
    values["sim.other_share"] = sums["otherNs"] / wall
    for name, key in HOSTPROF_LAYERS:
        calls = sums[key + "Calls"]
        values[f"{name}.host_share"] = sums[key + "Ns"] / wall
        values[f"{name}.ns_per_call"] = (sums[key + "Ns"] / calls
                                         if calls else 0.0)
    # Traced against untraced time on the same inputs; an input whose
    # untraced point failed has nothing to compare with.
    pairs = [(p["runS"], statistics.median(u["runS"] for u in untraced[s]))
             for s, ps in traced.items() if untraced[s] for p in ps]
    values["sim.trace_overhead"] = (
        sum(t for t, _ in pairs) / sum(u for _, u in pairs) if pairs else 0.0)
    layers = [sim_layers(p) for p in firsts]
    for k in layers[0]:
        values[k] = mean([lay[k] for lay in layers])
    return with_units(values), (rows, point_s, len(traced_points))


def layer_table(rows, point_s, n):
    lines = [f"per-layer host time over {n} traced point(s)",
             f"{'layer':<48}{'self_s':>10}{'share':>8}{'calls':>12}"
             f"{'ns/call':>14}"]
    for name, self_s, calls in rows:
        per_call = self_s * 1e9 / calls if calls else 0.0
        lines.append(f"{name:<48}{self_s:>10.3f}{self_s / point_s:>8.1%}"
                     f"{calls:>12.0f}{per_call:>14.1f}")
    lines.append(f"{'total (point spans)':<48}{point_s:>10.3f}{1:>8.1%}")
    return "\n".join(lines)


def write_trace(workload, seed, host, untraced, traced, table, trace_dir):
    """Spans of every point (one trace id per point) and the table."""
    points = [p for by in (untraced, traced) for ps in by.values()
              for p in ps]
    spans = []
    for trace_id, p in enumerate(points):
        with open(p["spansFile"]) as f:
            for s in json.load(f)["spans"]:
                spans.append({"trace": trace_id, "input_seed": p["seed"],
                              "traced": p["traced"], **s})
        os.remove(p["spansFile"])
    out = trace_dir / f"{workload}-seed{seed}"
    with open(out.with_suffix(".json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "host": host,
                   "spans": spans}, f, indent=1)
    with open(out.with_suffix(".txt"), "w") as f:
        f.write(table + "\n")


def run_workload(driver, workload, seed, seconds, trace):
    inputs = WORKLOADS[workload]["inputs"]
    subseeds = [(seed * inputs + k) % 2**64 for k in range(inputs)]
    trace_dir = None
    if trace:
        trace_dir = build_dir() / "perfbench-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(driver, workload, trace_dir)
    untraced, traced = measure(runner, subseeds, seconds, trace)
    any_point = next((p for by in (untraced, traced) for ps in by.values()
                      for p in ps), None)
    host = host_info(any_point["hwCounters"] if any_point else None)
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"hw_counters={host['hw_counters']}")
    if trace:
        metrics, layers = per_layer(untraced, traced)
        if layers:
            table = layer_table(*layers)
            print(table)
            write_trace(workload, seed, host, untraced, traced, table,
                        trace_dir)
    else:
        metrics = end_to_end(untraced)
    # Every input must have produced a result for the means to be
    # the exact ones of this seed.
    complete = all(untraced.values()) and (
        not trace or any(traced.values()))
    return {"correct": runner.failed == 0 and complete,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    driver = build()
    if args.workload != "all":
        result = run_workload(driver, args.workload, args.seed,
                              args.seconds, args.trace)
        for name, m in result["metrics"].items():
            print(f"{name:<28}{m['value']:>18.6g} {m['unit']}")
        print(json.dumps(result))
        return
    results = {}
    for w in WORKLOADS:
        results[w] = run_workload(driver, w, args.seed, args.seconds,
                                  args.trace)
    names = list(results[next(iter(WORKLOADS))]["metrics"])
    print(f"{'metric':<28}{'unit':<12}" +
          "".join(f"{w:>26}" for w in WORKLOADS))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = "".join(
            f"{r['metrics'][name]['value']:>26.6g}" if name in r["metrics"]
            else f"{'-':>26}" for r in results.values())
        print(f"{name:<28}{unit:<12}{cells}")
    print(f"{'failed/attempted':<40}" + "".join(
        f"{str(r['failed']) + '/' + str(r['attempted']):>26}"
        for r in results.values()))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
