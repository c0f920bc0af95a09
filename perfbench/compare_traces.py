#!/usr/bin/env python3
"""Compare two traced benchmark runs layer by layer.

    python3 perfbench/compare_traces.py BASE_DIR CUR_DIR

Each directory holds results written by perfbench/run.py (its runs/ folder
under the build directory, copied aside per build): <workload>-seed<N>-trace1
.json with its .spans.jsonl, and optionally the untraced <...>-trace0.json of
the same workloads. For every workload it prints

  * each layer's self time per main trial (per request for serve_mixed), from
    the span logs: a span's duration minus the part covered by its children,
    summed by span name, with the change from BASE to CUR;
  * every per-layer metric of the traced result, BASE vs CUR;
  * the tracing overhead on each side: traced core.trial_s over the untraced
    trial_s, minus one (medians over the seeds present).

When a directory holds several seeds of one workload, figures are medians
over them.
"""

import collections
import glob
import json
import os
import statistics
import sys

LAYER_OF_SPAN = {
    "trial": "core", "engine": "core", "construct": "dynamic", "graph_at": "dynamic",
    "apply_delta": "graph", "rebuild": "graph", "profile": "bounds", "continuation": "bounds",
    "emit": "scenarios", "request": "serve", "handle_hit": "serve", "handle_miss": "serve",
    "resolve": "serve", "fingerprint": "repro", "round": "bench",
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def span_self_times(path):
    """Self seconds per span name, divided by the number of main trials (trial
    spans under a round) or, failing that, of client requests."""
    spans = []
    with open(path) as handle:
        for line in handle:
            spans.append(json.loads(line))
    child_time = collections.defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_time = collections.defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s["name"]] += (s["end"] - s["start"]) - child_time[i]
    rounds = {i for i, s in enumerate(spans) if s["name"] == "round"}
    units = sum(1 for s in spans if s["name"] == "trial" and s["parent"] in rounds)
    if units == 0:
        units = sum(1 for s in spans if s["name"] == "request")
    return {name: t / max(units, 1) for name, t in self_time.items()}


def collect(directory):
    """workload -> {"spans": {name: [per-seed]}, "metrics": {..}, "overhead": [..]}"""
    out = {}
    for traced in sorted(glob.glob(os.path.join(directory, "*-trace1.json"))):
        result = load(traced)
        w = result["workload"]
        entry = out.setdefault(w, {"spans": collections.defaultdict(list),
                                   "metrics": collections.defaultdict(list), "overhead": []})
        for name, m in result["metrics"].items():
            entry["metrics"][name].append(m["value"])
        spans = traced[:-len(".json")] + ".spans.jsonl"
        if os.path.exists(spans):
            for name, t in span_self_times(spans).items():
                entry["spans"][name].append(t)
        untraced = traced.replace("-trace1.json", "-trace0.json")
        if os.path.exists(untraced):
            base = load(untraced)["metrics"]["trial_s"]["value"]
            entry["overhead"].append(result["metrics"]["core.trial_s"]["value"] / base - 1.0)
    return out


def med(values):
    return statistics.median(values) if values else float("nan")


def change(a, b):
    return "%+8.1f%%" % (100.0 * (b - a) / a) if a else "       -"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, cur = collect(argv[1]), collect(argv[2])
    for w in sorted(set(base) | set(cur)):
        b, c = base.get(w), cur.get(w)
        if b is None or c is None:
            print("%s: only in %s" % (w, argv[1] if c is None else argv[2]))
            continue
        print("== %s" % w)
        print("  %-10s %-13s %14s %14s %9s" % ("layer", "span", "base self s", "cur self s",
                                                 "change"))
        for name in sorted(set(b["spans"]) | set(c["spans"]),
                           key=lambda n: (LAYER_OF_SPAN.get(n, "?"), n)):
            x, y = med(b["spans"].get(name, [])), med(c["spans"].get(name, []))
            print("  %-10s %-13s %14.6g %14.6g %9s" % (LAYER_OF_SPAN.get(name, "?"), name, x, y,
                                                       change(x, y)))
        print("  %-28s %14s %14s %9s" % ("per-layer metric", "base", "cur", "change"))
        for name in sorted(set(b["metrics"]) | set(c["metrics"])):
            x, y = med(b["metrics"].get(name, [])), med(c["metrics"].get(name, []))
            print("  %-28s %14.6g %14.6g %9s" % (name, x, y, change(x, y)))
        print("  tracing overhead on trial_s: base %s, cur %s" %
              tuple("%+.1f%%" % (100 * med(e["overhead"])) if e["overhead"] else "n/a (no trace0)"
                    for e in (b, c)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
