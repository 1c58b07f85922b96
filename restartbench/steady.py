#!/usr/bin/env python3
"""Steadiness report: run workloads N times with different seeds and show,
per end-to-end metric, the median, the quartiles, the quartile spread and
(max - min) / median. A metric whose quartile spread exceeds its bound in
BENCHMARK.json is flagged; so is one above a third of its bound (the
margin the benchmark is tuned to). setup_s is checked like the others.

With --sets 2 the whole set (every workload, every seed) runs again with
the same seeds once the first has finished, and each metric's change of
median from one set to the next is checked against its bound: the
evidence that two sets of runs of the same code agree.

Run from the repository root:

    python3 restartbench/steady.py --runs 10 [--sets 2]
        [--workload restart_planned ...] [--seed-base 1] [--trace 0]
    python3 restartbench/steady.py --compare A.jsonl B.jsonl

Set k's JSON lines go to .bench_out/steady-set<k>.jsonl (overwritten).
Exits 1 if any metric is outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_set(bench, workloads, args, path):
    """Run every workload over the seeds; return {workload: {metric: [values]}}."""
    values = {}
    with open(path, "w") as log:
        for w in workloads:
            walls = []
            for i in range(args.runs):
                seed = args.seed_base + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(args.trace)]
                t = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                walls.append(time.time() - t)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                log.flush()
                if not result["correct"]:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{w} seed {seed}: incorrect output")
                for name, m in result["metrics"].items():
                    values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"  {w}: {args.runs} runs, wall median {statistics.median(walls):.1f} s, "
                  f"max {max(walls):.1f} s", flush=True)
    return values


def load(path):
    values = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return values


def flag_for(share, bound):
    if bound is None:
        return "", 0
    if share > bound:
        return "  OUTSIDE BOUND", 1
    if share > bound / 3:
        return "  above bound/3", 0
    return "", 0


def spread_report(values, bounds):
    flagged = 0
    for w, metrics in values.items():
        n = len(next(iter(metrics.values())))
        print(f"\n{w}: {n} runs")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'rng/med':>8}  bound")
        for name, vs in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vs) - min(vs)) / med if med else float("inf")
            bound = bounds.get(name)
            flag, bad = flag_for(iqr, bound)
            flagged += bad
            print(f"  {name:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {iqr:>8.3f} {rng:>8.3f}  {bound}{flag}")
    return flagged


def compare_report(a, b, bounds):
    """Change of median from set a to set b, either direction, vs the bound."""
    flagged = 0
    for w in a:
        if w not in b:
            continue
        print(f"\n{w}")
        print(f"  {'metric':<36} {'median 1':>12} {'median 2':>12} {'change':>8}  bound")
        for name, va in a[w].items():
            if name not in b[w]:
                continue
            m1, m2 = statistics.median(va), statistics.median(b[w][name])
            change = (m2 - m1) / m1 if m1 else float("inf")
            bound = bounds.get(name)
            flag, bad = flag_for(abs(change), bound)
            flagged += bad
            print(f"  {name:<36} {m1:>12.5g} {m2:>12.5g} {change:>+8.3f}  {bound}{flag}")
    return flagged


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.compare:
        sets = [load(p) for p in args.compare]
    else:
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        os.makedirs(".bench_out", exist_ok=True)
        sets = []
        for k in range(1, args.sets + 1):
            path = f".bench_out/steady-set{k}.jsonl"
            print(f"set {k} ({time.strftime('%H:%M:%S')}) -> {path}", flush=True)
            sets.append(run_set(bench, workloads, args, path))

    flagged = 0
    for k, values in enumerate(sets, 1):
        print(f"\n=== set {k}: spread within the set")
        flagged += spread_report(values, bounds)
    for k in range(1, len(sets)):
        print(f"\n=== set {k} -> set {k + 1}: change of median")
        flagged += compare_report(sets[k - 1], sets[k], bounds)
    print(f"\n{flagged} metric(s) outside their bound")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
