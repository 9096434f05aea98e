#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs every workload of BENCHMARK.json (or those named with --workloads)
--runs times, each with another --seed, untraced and for the benchmark's
run_seconds, exactly as BENCHMARK.json's command does.  For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
A spread above the metric's bound is marked, and so is one above a third of
it.  With --sets 2 the whole check runs twice and each metric's medians are
compared: their difference as a share of the smaller one is their drift,
held to the metric's bound whichever set reads better.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/steadiness.json

Run it from the repository root.  Exits 1 when any run fails or reports a
wrong output, or when a spread or a drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_set(bench, workloads, runs, first_seed):
    """One pass over the workloads; returns {workload: {metric: summary}}
    and whether every run succeeded."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    out = {}
    for workload in workloads:
        values = {}
        walls = []
        steal_ms = []
        for k in range(runs):
            seed = first_seed + k
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if p.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
                continue
            print(f"{workload} seed {seed}: {walls[-1]:.1f}s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
            for line in lines:
                if line.startswith('{"run"'):
                    steal_ms.append(float(json.loads(line)["run"]["host_steal_ms"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:20s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bound}){flag}", flush=True)
            print("    runs: " + " ".join(f"{v:.6g}" for v in vs), flush=True)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4),
                          "values": vs}
        out[workload] = {"metrics": rows, "median_wall_s": round(statistics.median(walls), 1),
                         "host_steal_ms": steal_ms}
    return out, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sets = []
    ok = True
    for _ in range(args.sets):
        summary, set_ok = run_set(bench, workloads, args.runs, args.first_seed)
        sets.append(summary)
        ok = ok and set_ok
    if len(sets) > 1:
        print("drift between the sets' medians, |a - b| / min(a, b):")
        for workload in workloads:
            for name in sets[0][workload]["metrics"]:
                medians = [s[workload]["metrics"][name]["median"] for s in sets]
                low, high = min(medians), max(medians)
                drift = (high - low) / low if low else 0.0
                flag = "  OVER BOUND" if drift > metrics[name]["bound"] else ""
                ok = ok and not flag
                print(f"  {workload:10s} {name:20s} {drift:.4f} (bound {metrics[name]['bound']}){flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "run_seconds": bench["run_seconds"], "sets": sets}, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
