#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload once per seed, each run in a fresh process, and prints
for every metric the median, the quartiles and the quartile spread as a
share of the median (IQR / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound. It also prints the median of each workload's ``half_rate_ratio``
note (second half of the timed phase over the first; near 1.0 means the
warm-up reached the plateau) and re-runs the first seed to confirm that
the exact simulated counts repeat bit for bit.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10
    python3 perfbench/steadiness.py --workloads sim-steady --seeds 5
    python3 perfbench/steadiness.py --trace 1 --seeds 2
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics whose value must repeat exactly for one seed (simulated counts).
EXACT = {"sim-setup": ["tx_per_op"], "sim-steady": ["tx_per_op"]}


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    notes = {}
    for line in proc.stderr.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[:2] == ["perfbench:", "note"]:
            notes[parts[2]] = float(parts[3])
    return result, notes


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    ok = True
    for workload in names:
        runs = []
        for seed in seeds:
            result, notes = run_once(cmd, workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
            runs.append((result, notes))
            sys.stderr.write(f"{workload} seed {seed}: done\n")
        print(f"\n== {workload}: {len(seeds)} seeds, {seconds} s, trace {args.trace}")
        print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'bound':>6}")
        for metric in runs[0][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            q1, med, q3, share = spread(values)
            bound = bounds.get(metric)
            flag = ""
            if args.trace == 0 and bound is not None:
                if share > bound:
                    flag, ok = "  OVER BOUND", False
                elif share > bound / 3:
                    flag = "  over bound/3"
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"{metric:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{share:>8.4f} {bound_s:>6}{flag}")
        ratios = [n["half_rate_ratio"] for _, n in runs if "half_rate_ratio" in n]
        if ratios:
            q1, med, q3, _ = spread(ratios) if len(ratios) > 1 else (0, ratios[0], 0, 0)
            print(f"{'second-half / first-half rate':<40} {med:>14.4f} "
                  f"{q1:>14.4f} {q3:>14.4f}")
        if args.trace == 0 and workload in EXACT:
            again, notes = run_once(cmd, workload, seeds[0], seconds, 0)
            first, first_notes = runs[0]
            same = all(again["metrics"][m]["value"] == first["metrics"][m]["value"]
                       for m in EXACT[workload])
            same &= all(notes.get(k) == v for k, v in first_notes.items()
                        if k.startswith("exact."))
            print(f"exact counts repeat for seed {seeds[0]}: {'yes' if same else 'NO'}")
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
