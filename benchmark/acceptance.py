#!/usr/bin/env python3
"""Repeats the benchmark and writes the agreement tables under results/.

Two sets of runs of the same build are interleaved (A, B, A, B, ...), each run
with another seed. For every workload x end-to-end metric the table holds each
set's median and quartiles, the spread (interquartile range over median) and
how far the two medians lie apart, next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 benchmark/acceptance.py [--runs 10] [--workloads a,b] [--trace]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "n": len(values),
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics, no bounds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in contract["workloads"]]
    declared = contract["per_layer" if args.trace else "end_to_end"]
    seconds = contract["run_seconds"]

    table, walls = {}, []
    for workload in workloads:
        sets = {"A": [], "B": []}
        for run in range(2 * args.runs):
            label = "AB"[run % 2]
            values, wall = run_once(contract["command"], workload, args.first_seed + run, seconds, int(args.trace))
            sets[label].append(values)
            walls.append(wall)
            print(f"{workload} {label}{run // 2} seed {args.first_seed + run}: {wall:.1f} s", file=sys.stderr)
        table[workload] = {}
        for metric in declared:
            name = metric["name"]
            a = summary([values[name] for values in sets["A"]])
            b = summary([values[name] for values in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            row = {"unit": metric["unit"], "A": a, "B": b, "B_worse_than_A": worse}
            if "bound" in metric:
                row["bound"] = metric["bound"]
                row["ok"] = max(a["spread"], b["spread"]) <= metric["bound"] and abs(worse) <= metric["bound"]
            table[workload][name] = row
            flag = "" if row.get("ok", True) else "  <-- outside bound"
            print(
                f"{workload:18} {name:34} A {a['median']:.6g} (spread {a['spread']:.3f})  "
                f"B {b['median']:.6g} (spread {b['spread']:.3f})  shift {worse:+.3f}{flag}"
            )

    report = {
        "what": "two interleaved sets of runs of one build; spread = (q3 - q1) / median per set; "
        "B_worse_than_A = relative shift of the medians in the metric's worse direction",
        "runs_per_set": args.runs,
        "run_seconds": seconds,
        "cpus": os.cpu_count(),
        "wall_seconds_per_run": summary(walls),
        "workloads": table,
    }
    path = os.path.join(ROOT, "benchmark", "results", "BENCH_layers_insitu.json" if args.trace else "BENCH_e2e.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
