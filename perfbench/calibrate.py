#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs every workload several times,
each with its own seed, and reports each end-to-end metric's median and
spread, (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4).

Run it from the repository root:

    python3 perfbench/calibrate.py --runs 10 --sets 2 --out calibration.json

A spread above a third of the metric's BENCHMARK.json bound is flagged
"high", and above the bound (setup_s excepted) "FAIL". With two or more
sets, a median of a later set that is worse than the first set's by more
than the bound is a FAIL too. The exit status is 1 when anything failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit("%s seed %d: exit status %d" % (workload, seed, p.returncode))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("%s seed %d: %d of %d jobs failed" % (workload, seed, res["failed"], res["attempted"]))
    return {name: m["value"] for name, m in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs; later sets' medians are compared to the first's")
    ap.add_argument("--seconds", type=int, help="measured window (default: run_seconds)")
    ap.add_argument("--workload", action="append", help="workload to run (default: all); repeatable")
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--out", help="write every run's metrics to this JSON file")
    opt = ap.parse_args()

    with open(opt.bench) as f:
        bench = json.load(f)
    seconds = opt.seconds or bench["run_seconds"]
    workloads = opt.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = []  # raw[set][workload] = list of metric dicts
    failed = False
    for s in range(opt.sets):
        raw.append({})
        for wl in workloads:
            runs = []
            for i in range(opt.runs):
                seed = opt.first_seed + 1000 * s + i
                t0 = time.time()
                runs.append(run_once(bench["command"], wl, seed, seconds))
                print("set %d %-18s seed %5d %5.1fs %s" % (s + 1, wl, seed, time.time() - t0,
                      " ".join("%s=%.6g" % kv for kv in sorted(runs[-1].items()))), flush=True)
            raw[s][wl] = runs

    print()
    print("%-18s %-16s %s" % ("workload", "metric", "  ".join("set %d median / spread" % (s + 1) for s in range(opt.sets))))
    for wl in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, notes = [], []
            first = None
            for s in range(opt.sets):
                vals = [r[name] for r in raw[s][wl]]
                med, spr = statistics.median(vals), spread(vals)
                cells.append("%12.6g / %.3f" % (med, spr))
                if spr > bound and name != "setup_s":
                    notes.append("FAIL: set %d spread over the bound %.2f" % (s + 1, bound))
                    failed = True
                elif spr > bound / 3 and name != "setup_s":
                    notes.append("high: set %d spread over a third of the bound" % (s + 1))
                if first is None:
                    first = med
                else:
                    worse = med / first - 1 if m["better"] == "lower" else 1 - med / first
                    if worse > bound:
                        notes.append("FAIL: set %d median %.1f%% worse than set 1" % (s + 1, 100 * worse))
                        failed = True
            print("%-18s %-16s %s  %s" % (wl, name, "  ".join(cells), "; ".join(notes)))

    if opt.out:
        with open(opt.out, "w") as f:
            json.dump({"seconds": seconds, "runs": raw}, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
