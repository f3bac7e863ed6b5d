#!/usr/bin/env python3
"""Run workloads several times with successive seeds and report each
metric's median, quartiles and spread, to show the benchmark is steady.

    python3 perfbench/repeat.py --workload cluster-churn-cold --runs 5
    python3 perfbench/repeat.py --workload all --runs 10 --seed0 1 --sets 2

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4). A metric whose spread exceeds a
third of its bound in BENCHMARK.json is flagged. With --sets 2 the same
seeds run twice, one set after the other, and each metric also shows
how much worse the second set's median is than the first's, as a share
of the first; a difference above the bound is flagged. The helper also
checks that every run is correct, that it printed exactly the metric
names BENCHMARK.json lists, and that no operation failed. Raw results
are appended as JSON lines to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    context = {}
    for line in lines[:-1]:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    return json.loads(lines[-1]), context


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--sets", type=int, default=1, help="run the same seeds this many times")
    ap.add_argument("--log", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    better = {m["name"]: m["better"] for m in listed}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]

    ok = True
    for wl in names:
        sets = []
        for n in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = args.seed0 + i
                res, context = run_once(wl, seed, seconds, args.trace)
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps({"workload": wl, "seed": seed, "set": n, "trace": args.trace,
                                            "result": res, "context": context}) + "\n")
                if not res["correct"] or res["failed"] != 0:
                    print("%s seed %d: correct=%s failed=%d of %d" % (wl, seed, res["correct"], res["failed"], res["attempted"]))
                    ok = False
                if set(res["metrics"]) != set(bounds):
                    print("%s seed %d: metric names differ from BENCHMARK.json: %s" % (
                        wl, seed, sorted(set(res["metrics"]) ^ set(bounds))))
                    ok = False
                for k, m in res["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
            sets.append(values)
        print("== %s: %d set(s) of %d runs, seeds %d..%d, %gs each" % (
            wl, args.sets, args.runs, args.seed0, args.seed0 + args.runs - 1, seconds))
        for k in sorted(sets[0]):
            bound = bounds.get(k)
            meds = []
            for n, values in enumerate(sets):
                v = values[k]
                med = statistics.median(v)
                meds.append(med)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
                spread = (q3 - q1) / abs(med) if med else 0.0
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "  > bound/3 (%g)" % bound
                print("  %-34s set %d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
                    k, n + 1, med, q1, q3, spread, flag))
            for n in range(1, len(meds)):
                worse = (meds[n] - meds[0]) / abs(meds[0]) if meds[0] else 0.0
                if better.get(k) == "higher":
                    worse = -worse
                flag = ""
                if bound is not None and worse > bound:
                    flag = "  > bound (%g)" % bound
                    ok = False
                print("  %-34s set %d vs set 1: %+.4f worse%s" % (k, n + 1, worse, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
