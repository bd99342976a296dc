#!/usr/bin/env python3
"""Prints the per-layer metrics of two sets of traced runs side by side.

    scripts/layer_diff.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds the records `benchmark/run.sh --trace 1 --out FILE` appends.
For every workload both sides ran, the table lists each metric that
BENCHMARK.json declares per-layer, in its order: the median of each side's
runs, the relative change and which direction is better. A metric that a
side did not report shows as "-". There is no verdict: a traced pair sizes
a change layer by layer, and benchmark/compare.py judges the end-to-end
metrics.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load(path):
    by_workload = defaultdict(list)
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                run = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not a JSON record ({e})")
            by_workload[run["workload"]].append(run)
    return by_workload


def median(runs, name):
    values = [r["metrics"][name]["value"] for r in runs
              if name in r.get("metrics", {})]
    return statistics.median(values) if values else None


def cell(value):
    return "-" if value is None else f"{value:.4g}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        per_layer = json.load(f)["per_layer"]
    base, new = load(args.base), load(args.new)
    workloads = [w for w in base if w in new]
    if not workloads:
        sys.exit("layer_diff: no workload appears on both sides")
    for w in workloads:
        print(f"{w}: {len(base[w])} base run(s), {len(new[w])} new run(s), "
              "medians")
        print(f"  {'metric':<42} {'base':>12} {'new':>12} {'change':>9}  "
              "better")
        for m in per_layer:
            b, n = median(base[w], m["name"]), median(new[w], m["name"])
            if b is None and n is None:
                continue
            change = ("" if b is None or n is None or b == 0
                      else f"{(n - b) / abs(b):+.1%}")
            print(f"  {m['name']:<42} {cell(b):>12} {cell(n):>12} "
                  f"{change:>9}  {m['better']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
