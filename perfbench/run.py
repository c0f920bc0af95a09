#!/usr/bin/env python3
"""The repository benchmark: builds the workload binary and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary (perfbench/CMakeLists.txt, Release)
is built under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, and rebuilt when sources change. The workload runs in a
fresh child process, so its peak RSS is its own. Standard output carries an
hw_info line and, last, the result object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; every
run's result (and a traced run's span log) is also saved under
<build dir>/runs/ for perfbench/steady.py and perfbench/compare_traces.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["em_churn", "torus_static", "adversary_bounds", "serve_mixed"]
# A workload's own limit: set-up, the timed phase, the checks and the serve
# tail fit in 170 s at the benchmark's run length; longer runs get room in
# proportion.
MIN_CHILD_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def source_id():
    """Content hash of every source the binary is built from: the build id,
    which needs no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "cmake", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build(bdir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/CMakeLists.txt)")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as handle:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in handle.read():
                shutil.rmtree(bdir)  # configured for another checkout
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_workload"]]
    if os.path.isfile(cache):
        steps = steps[1:]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")
    return os.path.join(bdir, "perfbench_workload")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    hw = json.loads(subprocess.run([binary, "--hwinfo"], check=True, capture_output=True,
                                   text=True).stdout)
    hw = {"record": "hw_info", **hw, "nproc": os.cpu_count(),
          "allowed_cpus": len(os.sched_getaffinity(0)), "build": source_id()}
    if hw["sanitizer"] != "none" or hw["build_type"] != "Release":
        fail("refusing a %s build with sanitizer %s" % (hw["build_type"], hw["sanitizer"]))
    print(json.dumps(hw), flush=True)

    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--socket", "%s-%d.sock" % (args.workload, os.getpid())]
    if args.trace:
        command += ["--spans", stem + ".spans.jsonl"]
    timeout = max(MIN_CHILD_TIMEOUT_S, 3 * args.seconds + 120)
    try:
        child = subprocess.run(command, cwd=runs, stdout=subprocess.PIPE, text=True,
                               timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s ran past %d s" % (args.workload, timeout), 1)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited with code %d and no result" % (args.workload, child.returncode), 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1], 1)
    with open(os.path.join(runs, stem + ".json"), "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "hw_info": hw, **result}, handle)
        handle.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] and child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
