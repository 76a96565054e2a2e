#!/usr/bin/env python3
"""Steadiness checks for the host-time benchmark, run from a checkout root.

    python3 perfbench/check.py spread [--seeds 10] [--workloads tracking,farm]
    python3 perfbench/check.py steady [--seed 7] [--workloads ...]

spread: runs each workload once per seed (untraced) and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) as a share
of the median, against the metric's bound in BENCHMARK.json, with each
run's host steal share and the spreads before host-speed calibration beside
it. Exits 1 when a spread reaches a third of its bound.

steady: runs each workload untraced and traced, twice each, alternating,
under one seed.
The counts that must repeat exactly under one seed (allocated words per op,
messages per op, expanded processes, store hits and misses) are compared
between the two traced runs; the traced throughput against the untraced one
is the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = ("gc.alloc_mw_per_op", "sim.msgs_per_op", "procnet.nodes",
         "store.hits", "store.misses", "store.bytes_written")

# diagnostics: the timed metrics before host-speed calibration, and the
# calibration kernel's own time
RAW = ("raw_setup_s", "raw_throughput_per_s", "raw_op_p50_ms",
       "raw_op_tail_ms", "calibration_p50_ms")

# The serve client parses responses carrying wall-time fields whose printed
# length varies, so its allocation repeats only to this relative tolerance
# (differences of up to 2e-3 were seen between identical runs).
SERVE_ALLOC_TOLERANCE = 1e-2


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    lines = out.stdout.strip().splitlines()
    diag = next(json.loads(l.split(" ", 1)[1]) for l in lines
                if l.startswith("perfbench-diag "))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("  %s seed %d: %d of %d ops failed" % (
            workload, seed, result["failed"], result["attempted"]))
    return result, diag


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        values = {name: [] for name in bounds}
        raw = {name: [] for name in RAW}
        steal = []
        for i in range(args.seeds):
            result, diag = run(w, args.first_seed + i, bench["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in RAW:
                raw[name].append(diag[name])
            steal.append(diag["steal_share"])
        print("%s: %d runs, steal share %s" % (
            w, args.seeds, " ".join("%.3f" % s for s in steal)))
        print("  uncalibrated: " + "  ".join(
            "%s spread %.2f%%" % (name, 100 * quartile_spread(vs))
            for name, vs in raw.items()))
        for name, vs in values.items():
            med = statistics.median(vs)
            share = quartile_spread(vs)
            worst = max(worst, share / bounds[name])
            print("  %-18s median %12.6g  spread %6.2f%%  bound %4.0f%%  %s" % (
                name, med, 100 * share, 100 * bounds[name],
                "ok" if share < bounds[name] / 3 else "NOISY"))
            print("      " + " ".join("%.6g" % v for v in vs))
    print("largest spread / bound: %.2f" % worst)
    return worst


def steady(args, bench):
    ok = True
    for w in args.workloads:
        # alternate untraced and traced runs so host drift hits both sides
        plain, traced = [], []
        for _ in range(2):
            plain.append(run(w, args.seed, bench["run_seconds"], 0)[1])
            traced.append(run(w, args.seed, bench["run_seconds"], 1))
        untraced_tp = statistics.mean(d["throughput_per_s"] for d in plain)
        traced_tp = statistics.mean(d["throughput_per_s"] for _, d in traced)
        print("%s: tracing overhead %.1f%% (throughput %.6g traced vs %.6g)" % (
            w, 100 * (1 - traced_tp / untraced_tp), traced_tp, untraced_tp))
        (a, _), (b, _) = traced
        for name in EXACT:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = x == y
            if not same and w == "serve" and name == "gc.alloc_mw_per_op":
                same = abs(x - y) <= SERVE_ALLOC_TOLERANCE * abs(x)
            ok = ok and same
            print("  %-20s %14.8g %14.8g  %s" % (name, x, y,
                                                 "same" if same else "DIFFERS"))
    print("exact counts repeat" if ok else "exact counts DIFFER")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("spread", "steady"))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", default=None)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    if args.mode == "spread":
        if spread(args, bench) >= 1 / 3:
            sys.exit(1)
    elif not steady(args, bench):
        sys.exit(1)


if __name__ == "__main__":
    main()
