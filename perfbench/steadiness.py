#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of one build agree?

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--sets 2]
                                    [--out results.json]

Runs perfbench/run.py once per (set, workload, seed), seeds 1..N in every
set, with the run length from BENCHMARK.json.  For each workload x
end-to-end metric it prints every set's median and quartiles and the spread
(q3 - q1) / median, and each later set's median change from the first set's.
It flags a spread above a third of the metric's bound ("noisy", setup_s
included), and a median change larger than the bound in either direction
("DRIFT"): a set that reads better is as unsteady as one that reads worse.
Exits 1 if anything is flagged or any run fails or is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    info = [json.loads(l[len("info: "):]) for l in lines if l.startswith("info: ")]
    return json.loads(lines[-1]), info


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {}  # (workload, metric) -> [set] -> [value per seed]
    bad = False
    raw = []
    for s in range(args.sets):
        for workload in workloads:
            for seed in range(1, args.seeds + 1):
                result, info = run_once(workload, seed, spec["run_seconds"])
                raw.append({"set": s, "workload": workload, "seed": seed, "result": result,
                            "info": info})
                if not result["correct"] or result["failed"]:
                    print("run %s seed %d: correct=%s failed=%d" % (
                        workload, seed, result["correct"], result["failed"]))
                    bad = True
                for m in metrics:
                    values.setdefault((workload, m["name"]), [[] for _ in range(args.sets)])
                    values[(workload, m["name"])][s].append(result["metrics"][m["name"]]["value"])
                print("set %d %-14s seed %2d  %s" % (s, workload, seed, " ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)

    print("\n%-14s %-12s %s" % ("workload", "metric", "per set: median [q1, q3] spread"))
    for workload in workloads:
        for m in metrics:
            sets = values[(workload, m["name"])]
            flags = []
            cells = []
            medians = []
            for vals in sets:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                cells.append("%.4g [%.4g, %.4g] %.3f" % (med, q1, q3, spread))
                if spread > m["bound"] / 3:
                    flags.append("noisy")
            for med in medians[1:]:
                change = (med - medians[0]) / medians[0] if medians[0] else 0.0
                cells.append("change %+.3f" % change)
                if abs(change) > m["bound"]:
                    flags.append("DRIFT")
            bad = bad or bool(flags)
            print("%-14s %-12s %s  %s" % (workload, m["name"], " | ".join(cells), " ".join(flags)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
