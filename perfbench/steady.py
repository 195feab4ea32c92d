#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--traced 3] [--first-seed 1]
                                [--workloads a,b] [--seconds S] [--save F]

Runs every workload `--runs` times untraced, one seed per round, in
alternating workload order (forward on even rounds, backward on odd ones),
then `--traced` traced runs per workload. For each end-to-end metric it
prints the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread (q3 - q1) / median against the metric's bound from BENCHMARK.json,
flagging a spread above the bound (set-up time is exempt, as its bound
limits drift between medians, not spread). It then prints the tracing
overhead per metric (traced median minus untraced median) and the median
coverage of each traced root span. `--save` writes every run's full report
as JSON lines. Exits 1 when a run fails or a spread is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """Runs one benchmark invocation; returns (result, report) or raises."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(lines[-15:])
        raise RuntimeError("%s seed %d trace %d exited %d\n%s"
                           % (workload, seed, trace, proc.returncode, tail))
    report = next(json.loads(l[len("REPORT "):]) for l in lines
                  if l.startswith("REPORT "))
    return json.loads(lines[-1]), report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--save", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    untraced = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    ok = True

    def sweep(count, trace, sink):
        nonlocal ok
        for i in range(count):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.first_seed + i
                try:
                    result, report = run_once(w, seed, seconds, trace)
                except RuntimeError as e:
                    print("FAILED: %s" % e)
                    ok = False
                    continue
                if not result["correct"] or result["failed"]:
                    print("FAILED: %s seed %d reported failures" % (w, seed))
                    ok = False
                sink[w].append(report)
                print("  ran %-15s seed %-3d trace %d" % (w, seed, trace),
                      flush=True)

    sweep(args.runs, 0, untraced)
    sweep(args.traced, 1, traced)
    if args.save:
        with open(args.save, "w") as f:
            for sink in (untraced, traced):
                for reports in sink.values():
                    for r in reports:
                        f.write(json.dumps(r) + "\n")

    for w in workloads:
        print("\n== %s: %d untraced, %d traced runs" %
              (w, len(untraced[w]), len(traced[w])))
        if not untraced[w]:
            continue
        print("  %-18s %14s %14s %14s %8s %6s %10s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "spr/bound"))
        for name in bounds:
            values = [r["end_to_end"][name]["value"] for r in untraced[w]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  OUTSIDE BOUND"
                ok = False
            print("  %-18s %14.4f %14.4f %14.4f %8.4f %6.2f %10.2f %s%s" %
                  (name, med, q1, q3, spread, bounds[name],
                   spread / bounds[name], units[name], flag))
        if traced[w]:
            print("  tracing overhead (traced median - untraced median)")
            for name in bounds:
                t = [r["end_to_end"][name]["value"] for r in traced[w]
                     if r["end_to_end"].get(name, {}).get("value", 0) > 0]
                u = [r["end_to_end"][name]["value"] for r in untraced[w]]
                if not t:
                    print("    %-18s n/a (too few traced samples)" % name)
                    continue
                tm, um = statistics.median(t), statistics.median(u)
                print("    %-18s %+14.4f %s (%+.1f%%)" %
                      (name, tm - um, units[name], 100 * (tm - um) / um))
            print("  coverage (children's summed self time / root span)")
            roots = sorted({k for r in traced[w] for k in r["coverage"]})
            for root in roots:
                ratios = [r["coverage"][root]["ratio"] for r in traced[w]
                          if root in r["coverage"]]
                print("    %-28s median %.3f  unaccounted %.1f%%" %
                      (root, statistics.median(ratios),
                       100 * (1 - statistics.median(ratios))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
