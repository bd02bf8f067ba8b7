#!/usr/bin/env python3
"""Steadiness helper: runs the benchmark repeatedly and reports its spread.

  python3 perfbench/steady.py [--runs 10] [--seconds N] [--workloads a,b]
                              [--trace 0|1] [--seed-base 1]
                              [--checkout DIR ...]

Each round uses a new seed (seed-base + round) and runs every workload,
alternating the workload order from round to round. With several
--checkout directories (for example a parent commit and a change, each a
checkout with perfbench/ in it) every round runs each checkout in turn,
alternating which goes first.

For every checkout, workload and metric it prints the median, the first and
third quartile (statistics.quantiles(n=4)), the spread (q3 - q1) / median,
and the spread against the metric's bound from BENCHMARK.json. With two
checkouts it also prints, per end-to-end metric, how far the second
checkout's median is from the first's in the metric's worse direction,
against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (in %s)" % (" ".join(cmd), checkout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("incorrect results: %s (in %s)" %
                         (" ".join(cmd), checkout))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--checkout", action="append", default=None,
                        help="checkout root to run in (repeatable); "
                             "default: this one")
    args = parser.parse_args()

    checkouts = [os.path.abspath(c) for c in
                 (args.checkout or [os.path.dirname(HERE)])]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    # values[checkout][workload][metric] -> list
    values = {c: {w: {} for w in workloads} for c in checkouts}
    for r in range(args.runs):
        seed = args.seed_base + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            sides = checkouts if r % 2 == 0 else list(reversed(checkouts))
            for c in sides:
                result = run_once(c, w, seed, seconds, args.trace)
                for name, m in result["metrics"].items():
                    values[c][w].setdefault(name, []).append(m["value"])
                print("round %d seed %d %s %s: attempted %d failed %d: %s" %
                      (r + 1, seed, w, os.path.basename(c),
                       result["attempted"], result["failed"],
                       ", ".join("%s=%.6g" % (k, v["value"])
                                 for k, v in result["metrics"].items())),
                      file=sys.stderr)

    for c in checkouts:
        print("\n== %s (%d runs, %ds)" % (c, args.runs, seconds))
        for w in workloads:
            print("-- %s" % w)
            print("%-40s %14s %14s %14s %8s %7s %s" %
                  ("metric", "median", "q1", "q3", "spread", "bound",
                   "spread/bound"))
            for name, vals in values[c][w].items():
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name)
                verdict = ""
                if bound:
                    verdict = "%.2f%s" % (spread / bound,
                                          "" if spread <= bound / 3
                                          else "  (above 1/3 of bound)")
                print("%-40s %14.6g %14.6g %14.6g %8.4f %7s %s" %
                      (name, med, q1, q3, spread,
                       "%.3f" % bound if bound else "-", verdict))

    if len(checkouts) == 2 and not args.trace:
        a, b = checkouts
        print("\n== %s against %s (medians)" % (b, a))
        for w in workloads:
            print("-- %s" % w)
            for name, vals in values[a][w].items():
                ma = statistics.median(vals)
                mb = statistics.median(values[b][w][name])
                worse = (mb - ma) / ma if better[name] == "lower" else \
                        (ma - mb) / ma
                bound = bounds[name]
                print("%-40s %14.6g -> %14.6g  worse by %+.2f%% "
                      "(bound %.1f%%)%s"
                      % (name, ma, mb, 100 * worse, 100 * bound,
                         "  REGRESSION" if worse > bound else ""))


if __name__ == "__main__":
    main()
