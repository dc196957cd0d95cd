#!/usr/bin/env python3
"""Build and run the molcache end-to-end benchmark.

    python3 perfbench/run.py --workload fig5_spec4 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The first run configures and builds
perfbench/ (which compiles the tree's src/) into .bench_build/perfbench;
later runs only rebuild what changed.  Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result.  Exits
non-zero, printing no result, when the tree cannot be built or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fig5_spec4", "table2_mixed12", "molcached_churn")
# Headroom beyond --seconds: the pinned-seed pass, the pass that crosses
# the deadline and process start.  The whole run must end in 180 s.
RUN_SLACK_S = 90


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "molecular_cache.hpp")):
        sys.exit("run.py: no molcache source tree at %s" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.txt from the pinned seed")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", os.path.join(HERE, "golden")]
    if args.update_golden:
        command.append("--update-golden")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: perfbench did not finish in time")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("run.py: perfbench exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
