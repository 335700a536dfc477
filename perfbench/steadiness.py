#!/usr/bin/env python3
"""Measure how steady the benchmark is and derive its bounds.

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.json

Runs perfbench/run.py --trace 0 once per (set, workload, seed), SETS
sets of SEEDS, with BENCHMARK.json's run_seconds, and reports for every
end-to-end metric:

  seed_spread  the distance between the first and third quartile of one
               set's values (one per seed), as a share of their median:
               how much the result moves from input to input, plus
               noise. A check over ten seeds sees this spread, so the
               bound must cover it;
  noise        for each seed, how far a later set's value lies from the
               first set's, as a share of it: the same input run again.
               The median over seeds is the typical repeat noise;
  drift        how far the second set's median lies from the first's,
               as a share of the first, in either direction;
  exact        whether every seed gave the same value in every set.

A metric's bound is the smallest step of BOUND_STEPS that is at least
three times its median noise, twice its largest drift, and three times
its largest seed_spread when the metric is noisy, or SEED_HEADROOM times
it when the metric is exact (its seed_spread is then a fixed property of
the inputs, and only a different choice of seeds can widen it). When no
step is large enough the bound is the largest step; setup_s always gets
the largest step.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND_STEPS = [0.02, 0.05, 0.10, 0.15, 0.20, 0.25]
SETS = 2
SEEDS = list(range(1, 11))
SEED_HEADROOM = 1.5


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def derive_bound(name, stats):
    """(bound, whether a step meets the rule) from one metric's stats on
    every workload; the largest step when none does."""
    if name == "setup_s":
        return BOUND_STEPS[-1], True
    need = 0.0
    for m in stats:
        factor = SEED_HEADROOM if m["exact"] else 3
        need = max([need, 3 * m["noise_median"]]
                   + [factor * x for x in m["seed_spreads"]]
                   + [2 * abs(d) for d in m["drifts"]])
    fit = next((b for b in BOUND_STEPS if b >= need), None)
    return (fit or BOUND_STEPS[-1]), fit is not None


def metric_stats(per_set):
    """per_set[k][i]: the value of seed i in set k."""
    medians = [statistics.median(v) for v in per_set]
    noise = [abs(b - a) / a for later in per_set[1:]
             for a, b in zip(per_set[0], later)]
    return {"values": per_set, "medians": medians,
            "seed_spreads": [spread(v) for v in per_set],
            "noise_median": statistics.median(noise) if noise else 0.0,
            "noise_max": max(noise, default=0.0),
            "drifts": [(m - medians[0]) / medians[0] for m in medians[1:]],
            "exact": all(len(set(vs)) == 1 for vs in zip(*per_set))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"]]

    runs = []  # (set, workload, seed, result)
    host = None
    for s in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                       "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", "0"]
                t0 = time.monotonic()
                p = subprocess.run(cmd, capture_output=True, text=True,
                                   cwd=ROOT)
                took = time.monotonic() - t0
                if p.returncode != 0:
                    sys.exit(f"{' '.join(cmd)} failed:\n{p.stderr}")
                lines = p.stdout.strip().splitlines()
                host = host or next(
                    (ln for ln in lines if ln.startswith("host:")), None)
                r = json.loads(lines[-1])
                r["seconds"] = took
                runs.append((s, w, seed, r))
                print(f"set {s} {w} seed {seed}: {took:.1f} s, "
                      f"correct={r['correct']} failed={r['failed']}/"
                      f"{r['attempted']}", flush=True)

    report = {"host": host, "sets": SETS, "seeds": SEEDS,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in workloads:
        mine = [(s, r) for s, ww, _, r in runs if ww == w]
        entry = {"correct": all(r["correct"] for _, r in mine),
                 "max_run_seconds": max(r["seconds"] for _, r in mine),
                 "metrics": {}}
        for name in names:
            per_set = [[r["metrics"][name]["value"] for s, r in mine
                        if s == k] for k in range(SETS)]
            entry["metrics"][name] = metric_stats(per_set)
        report["workloads"][w] = entry
    report["derived_bounds"] = {}
    for name in names:
        bound, meets = derive_bound(
            name, [e["metrics"][name] for e in report["workloads"].values()])
        report["derived_bounds"][name] = {"bound": bound,
                                          "meets_rule": meets}

    print(host)
    print(f"{'workload':<28}{'metric':<14}{'median':>14}{'seed_spread':>13}"
          f"{'noise_med':>11}{'noise_max':>11}{'drift':>9}")
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:<28}{name:<14}{m['medians'][0]:>14.6g}"
                  f"{max(m['seed_spreads']):>13.2%}"
                  f"{m['noise_median']:>11.2%}{m['noise_max']:>11.2%}"
                  f"{max(m['drifts'] or [0], key=abs):>9.2%}"
                  + ("  exact" if m["exact"] else ""))
    print("derived bounds:", report["derived_bounds"])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
