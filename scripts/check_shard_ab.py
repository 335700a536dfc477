#!/usr/bin/env python3
"""Check sharded-host A/B equivalence (ISSUE acceptance).

The sharded scheduler (--shards=N, sim/parallel/) must be a pure
host-side change: every simulated outcome is byte-identical to the
legacy single-wheel path. This script drives point_runner through
the shard matrix:

  1. plain A/B: sssp/minnow-pf (with --timeline), sssp/minnow-pf
     with --stats-interval=500 (interval samples taken on the
     sharded weave) and pr/obim run at
     --shards=1 and --shards={2,4,8}; stats JSON and timeline JSON
     must be byte-identical per workload.
  2. faulted A/B: sssp/minnow-pf with a seeded --faults spec at
     --shards=1 vs --shards=4; injected faults must replay
     identically on sharded wheels.
  3. checkpoint cross-shard roundtrip: save a warm checkpoint at
     --shards=4, restore it at --shards=1 and --shards=8; both
     restores must warm-start and produce stats byte-identical to
     the --shards=1 cold baseline (shard count is a host knob, so
     it is deliberately absent from the checkpoint fingerprint).

Usage: check_shard_ab.py <path-to-point_runner-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

SCALE = "0.05"
THREADS = "8"
SEED = "7"
FAULTS = (
    "engine_stall:core=0,at=20000,dur=40000;"
    "dram_delay:p=0.2,add=150;"
    "noc_delay:p=0.05,add=80;"
    "drop_prefetch:p=0.3"
)


def fail(msg):
    print(f"check_shard_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_point(runner, workload, config, shards, extra):
    cmd = [
        runner,
        f"--workload={workload}",
        f"--config={config}",
        f"--scale={SCALE}",
        f"--threads={THREADS}",
        f"--cores={THREADS}",
        f"--seed={SEED}",
        f"--shards={shards}",
    ] + extra
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        fail(
            f"point_runner exited {proc.returncode} for "
            f"{workload}/{config} shards={shards} {extra}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    doc = json.loads(proc.stdout)
    if doc.get("schema") != "minnow-point-1":
        fail(f"bad point schema: {proc.stdout!r}")
    return doc


def read(path):
    with open(path, "rb") as f:
        return f.read()


def check_plain(runner, tmp, workload, config, with_timeline,
                flags=(), label=None):
    label = label or workload
    tag = f"{label}/{config}"
    base_stats = os.path.join(tmp, f"{label}-s1.json")
    base_tl = os.path.join(tmp, f"{label}-s1-tl.json")
    extra = list(flags) + [f"--stats-json={base_stats}"]
    if with_timeline:
        extra.append(f"--timeline={base_tl}")
    doc = run_point(runner, workload, config, 1, extra)
    if not doc["verified"]:
        fail(f"{tag}: shards=1 run failed verification")
    a_stats = read(base_stats)
    a_tl = read(base_tl) if with_timeline else None

    for shards in (2, 4, 8):
        stats = os.path.join(tmp, f"{label}-s{shards}.json")
        tl = os.path.join(tmp, f"{label}-s{shards}-tl.json")
        extra = list(flags) + [f"--stats-json={stats}"]
        if with_timeline:
            extra.append(f"--timeline={tl}")
        doc = run_point(runner, workload, config, shards, extra)
        if not doc["verified"]:
            fail(f"{tag}: shards={shards} failed verification")
        if read(stats) != a_stats:
            fail(
                f"{tag}: stats JSON differs between shards=1 and "
                f"shards={shards}"
            )
        if with_timeline and read(tl) != a_tl:
            fail(
                f"{tag}: timeline JSON differs between shards=1 "
                f"and shards={shards}"
            )
    print(
        f"check_shard_ab: {tag} OK (stats"
        f"{' + timeline' if with_timeline else ''} identical at "
        f"shards=1,2,4,8; {len(a_stats)} bytes)"
    )
    return a_stats


def check_faulted(runner, tmp):
    outs = {}
    for shards in (1, 4):
        stats = os.path.join(tmp, f"fault-s{shards}.json")
        run_point(
            runner, "sssp", "minnow-pf", shards,
            [f"--stats-json={stats}", f"--faults={FAULTS}"],
        )
        outs[shards] = read(stats)
    if outs[1] != outs[4]:
        fail(
            "faulted sssp/minnow-pf stats differ between shards=1 "
            "and shards=4"
        )
    print(
        "check_shard_ab: faulted sssp/minnow-pf OK (identical at "
        "shards=1,4)"
    )


def check_ckpt_cross_shard(runner, tmp, baseline):
    ckpt = os.path.join(tmp, "warm-s4.ckpt")
    run_point(runner, "sssp", "minnow-pf", 4,
              [f"--checkpoint-out={ckpt}"])
    if not os.path.exists(ckpt):
        fail("no warm checkpoint written at shards=4")
    for shards in (1, 8):
        stats = os.path.join(tmp, f"restore-s{shards}.json")
        doc = run_point(
            runner, "sssp", "minnow-pf", shards,
            [f"--stats-json={stats}", f"--checkpoint-in={ckpt}"],
        )
        if not doc["warmStart"]:
            fail(
                f"checkpoint saved at shards=4 did not warm-start "
                f"at shards={shards}"
            )
        if read(stats) != baseline:
            fail(
                f"stats after save@shards=4 restore@shards={shards}"
                f" differ from the shards=1 cold baseline"
            )
    print(
        "check_shard_ab: checkpoint save@4 restore@{1,8} OK "
        "(warm-started, byte-identical stats)"
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: check_shard_ab.py <point_runner-binary>")
    runner = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        # sssp stats come from the timeline-free run inside
        # check_plain? No: the baseline carries a timeline stats
        # group, and the checkpoint restores are timeline-free, so
        # record a timeline-free sssp baseline for the roundtrip.
        baseline = os.path.join(tmp, "sssp-plain-s1.json")
        run_point(runner, "sssp", "minnow-pf", 1,
                  [f"--stats-json={baseline}"])
        base = read(baseline)

        check_plain(runner, tmp, "sssp", "minnow-pf", True)
        check_plain(runner, tmp, "sssp", "minnow-pf", False,
                    ["--stats-interval=500"], "sssp-sampled")
        check_plain(runner, tmp, "pr", "obim", False)
        check_faulted(runner, tmp)
        check_ckpt_cross_shard(runner, tmp, base)
    print("check_shard_ab: OK")


if __name__ == "__main__":
    main()
