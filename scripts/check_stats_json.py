#!/usr/bin/env python3
"""Validate the --stats-json output of a bench binary.

Runs a small fig18 credit sweep with --stats-json, then checks the
emitted document against the "minnow-bench-stats-1" schema: every run
entry must carry its identifying parameters plus a full
"minnow-stats-2" registry snapshot, and the minnow-pf runs must
expose the acceptance metrics (per-core L2 MPKI, prefetch
coverage/accuracy, credit-stall counters).

The sweep runs with --host-profile=true, --timeline and
--attribution, so the snapshot must also carry the observability
groups: "hostprof" (host wall-clock attribution), "timeline" (event
counts plus the pop-wait/dequeue/execute/push latency percentiles),
and "attribution" (the five prefetch lifecycle classes, the derived
coverage and pollution rates, lineage conservation counters, and the
six latency histograms with P50/P95/P99), all numeric and
non-negative.

A second point of the same sweep runs with --stats-interval=2000 and
checks the column-wise interval section: every layout is a sorted key
list without duplicates, every sample names an existing layout and
carries one numeric value per layout key, and sample cycles strictly
increase.

Usage: check_stats_json.py <path-to-fig18-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import subprocess
import sys
import tempfile
import os


RUN_KEYS = {
    "workload": str,
    "config": str,
    "threads": int,
    "scale": (int, float),
    "seed": int,
    "credits": int,
    "timedOut": bool,
    "verified": bool,
    "cycles": int,
    "instructions": int,
    "l2Mpki": (int, float),
    "stats": dict,
}


def fail(msg):
    print(f"check_stats_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_run_entry(run, i):
    for key, ty in RUN_KEYS.items():
        if key not in run:
            fail(f"runs[{i}] missing key '{key}'")
        ok = isinstance(run[key], ty)
        if ok and ty is int and isinstance(run[key], bool):
            ok = False  # bool is an int subclass; reject it.
        if not ok:
            fail(
                f"runs[{i}].{key} has type "
                f"{type(run[key]).__name__}, wanted {ty}"
            )
    stats = run["stats"]
    if stats.get("schema") != "minnow-stats-2":
        fail(f"runs[{i}].stats.schema != minnow-stats-2")
    groups = stats.get("groups")
    if not isinstance(groups, dict) or not groups:
        fail(f"runs[{i}].stats.groups missing or empty")
    for gname, group in groups.items():
        if not isinstance(group, dict):
            fail(f"runs[{i}] group '{gname}' is not an object")
        for sname, sval in group.items():
            if isinstance(sval, dict):
                if sval.get("type") != "histogram":
                    fail(
                        f"runs[{i}] {gname}.{sname}: object stat "
                        "that is not a histogram"
                    )
                counts = sval.get("counts")
                if not isinstance(counts, list) or not counts:
                    fail(f"runs[{i}] {gname}.{sname}: bad counts")
                if sum(counts) != sval.get("total"):
                    fail(
                        f"runs[{i}] {gname}.{sname}: counts sum "
                        f"{sum(counts)} != total {sval.get('total')}"
                    )
            elif not isinstance(sval, (int, float)):
                fail(f"runs[{i}] {gname}.{sname}: non-numeric stat")
    return groups


def check_minnow_pf_groups(groups, i):
    """The acceptance metrics for an engine+prefetch run."""
    l2 = [g for g in groups if g.startswith("l2_")]
    if not l2:
        fail(f"runs[{i}]: no l2_<N> groups")
    for g in l2:
        if "mpki" not in groups[g]:
            fail(f"runs[{i}]: group {g} lacks mpki")
    mem = groups.get("mem")
    if mem is None:
        fail(f"runs[{i}]: no mem group")
    for key in ("prefetchCoverage", "prefetchAccuracy"):
        if key not in mem:
            fail(f"runs[{i}]: mem group lacks {key}")
    engines = [g for g in groups if g.startswith("minnow")]
    if not engines:
        fail(f"runs[{i}]: no minnow<N> engine groups")
    for g in engines:
        if "creditStalls" not in groups[g]:
            fail(f"runs[{i}]: group {g} lacks creditStalls")


def check_attribution_group(groups, i):
    """The --attribution group (prefetch provenance + lineage)."""
    g = groups.get("attribution")
    if g is None:
        fail(f"runs[{i}]: no attribution group")
    for cls in ("timely", "late", "earlyEvicted", "redundant",
                "polluting"):
        if not isinstance(g.get(cls), (int, float)):
            fail(f"runs[{i}]: attribution lacks class '{cls}'")
    for key in ("fills", "stallCyclesCovered", "missAfterEvict",
                "demandMisses", "coveredPct", "pollutionPct",
                "lineageAssigned", "lineageDequeued", "lineageLive",
                "lineageFanout"):
        if key not in g:
            fail(f"runs[{i}]: attribution lacks '{key}'")
    if not (0 <= g["coveredPct"] <= 100):
        fail(f"runs[{i}]: coveredPct out of range")
    if g["lineageLive"] != 0:
        fail(f"runs[{i}]: lineage leak ({g['lineageLive']} live)")
    for hist in ("issueToFill", "fillToUse", "issueToUse",
                 "pushToEnqueue", "enqueueToDequeue",
                 "dequeueToFirstMiss"):
        h = g.get(hist)
        if not isinstance(h, dict) or h.get("type") != "histogram":
            fail(f"runs[{i}]: attribution lacks histogram {hist}")
        for pct in ("P50", "P95", "P99"):
            if f"{hist}{pct}" not in g:
                fail(f"runs[{i}]: attribution lacks {hist}{pct}")


def check_observability_groups(groups, i):
    """The --host-profile / --timeline groups (PR 4)."""
    for gname in ("hostprof", "timeline"):
        g = groups.get(gname)
        if g is None:
            fail(f"runs[{i}]: no {gname} group")
        for sname, sval in g.items():
            if isinstance(sval, dict):
                continue  # histograms checked by check_run_entry.
            if not isinstance(sval, (int, float)):
                fail(f"runs[{i}] {gname}.{sname}: non-numeric")
            if sval < 0:
                fail(f"runs[{i}] {gname}.{sname}: negative ({sval})")
    tl = groups["timeline"]
    for key in (
        "events",
        "droppedEvents",
        "bufferCapacity",
        "popWaitP50",
        "dequeueP95",
        "executeP99",
        "pushP50",
    ):
        if key not in tl:
            fail(f"runs[{i}]: timeline group lacks {key}")
    if tl["events"] <= 0:
        fail(f"runs[{i}]: timeline recorded no events")


def check_intervals(stats, i):
    """The minnow-stats-2 interval section: layouts + samples."""
    iv = stats.get("intervals")
    if not isinstance(iv, dict):
        fail(f"runs[{i}]: no intervals object")
    layouts, samples = iv.get("layouts"), iv.get("samples")
    if not isinstance(layouts, list) or not layouts:
        fail(f"runs[{i}]: intervals.layouts missing or empty")
    if not isinstance(samples, list) or not samples:
        fail(f"runs[{i}]: intervals.samples missing or empty")
    for l, keys in enumerate(layouts):
        if not isinstance(keys, list) or not all(
            isinstance(k, str) for k in keys
        ):
            fail(f"runs[{i}]: layout {l} is not a list of keys")
        if keys != sorted(keys):
            fail(f"runs[{i}]: layout {l} keys are not sorted")
        if len(set(keys)) != len(keys):
            fail(f"runs[{i}]: layout {l} has duplicate keys")
    prev = None
    for j, s in enumerate(samples):
        cycle, layout, values = (
            s.get("cycle"), s.get("layout"), s.get("values"))
        if not isinstance(cycle, int) or isinstance(cycle, bool):
            fail(f"runs[{i}] sample {j}: bad cycle {cycle!r}")
        if prev is not None and cycle <= prev:
            fail(f"runs[{i}] sample {j}: cycle {cycle} <= {prev}")
        prev = cycle
        if (not isinstance(layout, int) or isinstance(layout, bool)
                or not 0 <= layout < len(layouts)):
            fail(f"runs[{i}] sample {j}: no layout {layout!r}")
        if not isinstance(values, list):
            fail(f"runs[{i}] sample {j}: values is not a list")
        if len(values) != len(layouts[layout]):
            fail(
                f"runs[{i}] sample {j}: {len(values)} values for"
                f" {len(layouts[layout])} keys of layout {layout}"
            )
        for v in values:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(f"runs[{i}] sample {j}: non-numeric value {v!r}")
    return len(samples)


def run_bench(bench, tmp, extra):
    """Run the sweep point with --stats-json and return the doc."""
    out = os.path.join(tmp, "stats.json")
    cmd = [
        bench,
        "--workloads=sssp",
        "--scale=0.05",
        "--threads=4",
        "--cores=4",
        "--credits-list=4",
        *extra,
        f"--stats-json={out}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(
            f"bench exited {proc.returncode}:\n{proc.stdout}"
            f"\n{proc.stderr}"
        )
    try:
        with open(out) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {out}: {e}")
    if doc.get("schema") != "minnow-bench-stats-1":
        fail("top-level schema != minnow-bench-stats-1")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs missing or empty")
    return runs


def main():
    if len(sys.argv) != 2:
        fail("usage: check_stats_json.py <fig18-binary>")
    bench = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        runs = run_bench(bench, tmp, [
            "--host-profile=true",
            "--attribution",
            f"--timeline={trace}",
        ])
        sampled = run_bench(bench, tmp, ["--stats-interval=2000"])

    saw_pf = False
    for i, run in enumerate(runs):
        groups = check_run_entry(run, i)
        if run["config"] == "minnow-pf":
            saw_pf = True
            check_minnow_pf_groups(groups, i)
            check_observability_groups(groups, i)
            check_attribution_group(groups, i)
    if not saw_pf:
        fail("no minnow-pf run in the sweep output")

    nsamples = 0
    for i, run in enumerate(sampled):
        check_run_entry(run, i)
        nsamples += check_intervals(run["stats"], i)

    print(f"check_stats_json: OK ({len(runs)} runs validated,"
          f" {nsamples} interval samples in {len(sampled)} sampled runs)")


if __name__ == "__main__":
    main()
