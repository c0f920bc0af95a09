#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--repeats 10] [--sets 1] [--workloads a,b]
                                [--seed-base 1] [--seconds S] [--json OUT]

Runs every workload --repeats times per set through perfbench/run.py, in
alternating order (forward, then backward, ...) with a new seed each repeat,
and prints for every metric its median, quartiles (statistics.quantiles,
n=4), min and max, and the quartile spread as a share of the median next to
the metric's bound in BENCHMARK.json. A spread above a third of its bound is
flagged ("wide"); setup_s is exempt from the spread rule. With --sets 2 it
also prints how far the second set's median moved from the first's, in the
worse direction, against the bound ("REGRESSED" when beyond it), and whether
the share of failed operations matches.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=REPO, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("steady: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write every run's figures here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for rep in range(args.repeats):
            order = workloads if rep % 2 == 0 else list(reversed(workloads))
            for w in order:
                runs[w].append(run_once(w, args.seed_base + rep, args.seconds))
                print("set %d repeat %d %s done" % (s + 1, rep + 1, w), file=sys.stderr)
        sets.append(runs)

    print("%-17s %-15s %5s %12s %12s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for w in workloads:
        for name, m in metrics.items():
            stats = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[w]]
                st = summarize(values)
                stats.append(st)
                flag = ""
                if name != "setup_s" and st["spread"] > m["bound"] / 3:
                    flag = "wide"
                print("%-17s %-15s %5d %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
                      (w, name, s + 1, st["median"], st["q1"], st["q3"], st["min"], st["max"],
                       st["spread"], m["bound"], flag))
            if len(stats) == 2:
                a, b = stats[0]["median"], stats[1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print("%-17s %-15s shift %+.4f of the first median (bound %.3f) %s" %
                      (w, name, worse, m["bound"], "REGRESSED" if worse > m["bound"] else "ok"))
        if len(sets) == 2:
            shares = [sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
                      for runs in sets]
            print("%-17s failed share %s" % (w, " vs ".join("%.6g" % x for x in shares)))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(sets, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
