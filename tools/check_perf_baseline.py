#!/usr/bin/env python3
"""Hard gate for the access-path micro-kernels (docs/perf.md).

Compares a freshly captured google-benchmark JSON document against the
committed baseline (BENCH_hotpath.json) and FAILS when any gated kernel
regresses.  Two design points keep the gate trustworthy on shared CI
runners:

1. Build-type refusal.  perf_kernels stamps "molcache_build_type" into
   the JSON context (its own main(); the stock "library_build_type" key
   only describes how the google-benchmark *library* was built).  Both
   the baseline and the candidate must say "release" -- a debug capture
   is not a performance measurement and is rejected outright.

2. Machine-speed normalization.  Absolute ns/op on a shared runner is
   noise; the ratio of a molecular kernel to the traditional
   set-associative yardstick (BM_HotpathTraditional/8, same process,
   same trace) is stable.  The gate compares normalized throughput:

       norm(name) = items_per_second(name) / items_per_second(yardstick)

   and fails when norm_candidate < --min-ratio * norm_baseline for any
   gated kernel (BM_HotpathMolecular/*).

Usage:
    check_perf_baseline.py BASELINE.json CANDIDATE.json [--min-ratio R]
"""

import argparse
import json
import sys

YARDSTICK = "BM_HotpathTraditional/8"
GATED_PREFIXES = ("BM_HotpathMolecular/",)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read {path}: {err}")


def build_type(doc, path):
    ctx = doc.get("context", {})
    bt = ctx.get("molcache_build_type")
    if bt is None:
        sys.exit(
            f"error: {path} has no molcache_build_type in its context; "
            "recapture with the current perf_kernels binary "
            "(its main() stamps the build type; see docs/perf.md)")
    return bt


def throughputs(doc, path):
    out = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name")
        ips = bench.get("items_per_second")
        if name and ips:
            out[name] = float(ips)
    if YARDSTICK not in out:
        sys.exit(f"error: {path} is missing the {YARDSTICK} yardstick")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--min-ratio", type=float, default=0.80,
        help="fail when normalized throughput drops below this fraction "
             "of the baseline (default: %(default)s)")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    for path, doc in ((args.baseline, base_doc), (args.candidate, cand_doc)):
        bt = build_type(doc, path)
        if bt != "release":
            sys.exit(
                f"error: {path} was captured from a '{bt}' build; the "
                "perf gate only accepts release captures")

    base = throughputs(base_doc, args.baseline)
    cand = throughputs(cand_doc, args.candidate)

    failures = []
    rows = []
    for name in sorted(base):
        if not name.startswith(GATED_PREFIXES):
            continue
        if name not in cand:
            failures.append(f"{name}: present in baseline, missing from "
                            "candidate")
            continue
        norm_base = base[name] / base[YARDSTICK]
        norm_cand = cand[name] / cand[YARDSTICK]
        ratio = norm_cand / norm_base
        rows.append((name, norm_base, norm_cand, ratio))
        if ratio < args.min_ratio:
            failures.append(
                f"{name}: normalized throughput {ratio:.2f}x of baseline "
                f"(floor {args.min_ratio:.2f}x)")

    if not rows and not failures:
        sys.exit("error: no gated kernels found in the baseline")

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'kernel':<{width}}  base(norm)  cand(norm)  ratio")
    for name, nb, nc, ratio in rows:
        flag = "" if ratio >= args.min_ratio else "  << REGRESSION"
        print(f"{name:<{width}}  {nb:10.4f}  {nc:10.4f}  {ratio:5.2f}x{flag}")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"\nPASS: all gated kernels within {args.min_ratio:.2f}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
