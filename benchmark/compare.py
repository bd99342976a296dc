#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    benchmark/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds the JSON records `benchmark/run.sh --out FILE` appends, one
per run, in the order they ran. Runs pair up by workload and position:
the i-th run of a workload on one side with the i-th on the other, so
collect the sides alternately. For every workload and end-to-end metric
the report gives each side's median and quartiles, the fraction of pairs
the new side wins (ties count for neither), and a verdict:

  improved    the new side wins at least 9 of 10 pairs and the medians
              differ by more than the base side's quartile spread
  regressed   the new median is worse than the base median by more than the
              metric's bound, and either both sides' spread (IQR / median)
              is within the bound or every new run is worse than every
              base run
  unresolved  a side's spread is wider than the bound and neither of the
              above holds (unless every new run beats every base run)
  unchanged   otherwise

Bounds and directions come from BENCHMARK.json. Invalid runs (see the
README) are listed and left out. Each workload's failed share of operations
follows its metrics, then the medians of the host-bound rates (throughput,
CPU and dollars per op, host steal), which have no bound and get no
verdict. Exits 1 on any regression, on a wrong result, or when the new side
failed a larger share of its operations than the base side; exits 2 on
unusable input.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

# Per-layer metrics shown beside the end-to-end ones, without a verdict.
UNBOUNDED = ("workload.throughput_kops", "workload.cpu_us_per_op",
             "costmodel.usd_per_kops", "host.steal_fraction")


def load(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not a JSON record ({e})")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def verdict(base, new, bound, lower_is_better):
    """Returns (verdict, win fraction) for paired value lists."""
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b, lower_is_better))
    win_fraction = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    all_better = all(better(n, b, lower_is_better) for n in new for b in base)
    all_worse = all(better(b, n, lower_is_better) for n in new for b in base)
    if (win_fraction >= 0.9 and better(nmed, bmed, lower_is_better)
            and abs(nmed - bmed) > bq3 - bq1):
        return "improved", win_fraction
    worse_by = (nmed - bmed) if lower_is_better else (bmed - nmed)
    noisy = max(spread(base), spread(new)) > bound
    if bmed and worse_by / abs(bmed) > bound and (not noisy or all_worse):
        return "regressed", win_fraction
    if noisy and not all_better:
        return "unresolved", win_fraction
    return "unchanged", win_fraction


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        base_runs = load(args.base)
        new_runs = load(args.new)
    except OSError as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    metrics = spec["end_to_end"]
    failed = False

    sides = {}
    for label, runs in (("base", base_runs), ("new", new_runs)):
        by_workload = defaultdict(list)
        for r in runs:
            if not r.get("correct", False):
                print(f"{label}: {r['workload']} seed {r['seed']}: "
                      "WRONG RESULTS")
                failed = True
            if not r.get("valid", False):
                print(f"{label}: {r['workload']} seed {r['seed']}: invalid, "
                      f"left out ({'; '.join(r.get('invalid', []))})")
                continue
            by_workload[r["workload"]].append(r)
        sides[label] = by_workload

    print(f"{'workload':20s} {'metric':26s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s} {'wins':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        base = sides["base"].get(workload, [])
        new = sides["new"].get(workload, [])
        if not base or not new:
            print(f"{workload:20s} no valid runs on "
                  f"{'both sides' if not base and not new else ('base' if not base else 'new')}")
            continue
        # The i-th run of one side ran next to the i-th run of the other,
        # so pairs share the host's speed at the time.
        paired = list(zip(base, new))
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            b = [p[0]["metrics"][name]["value"] for p in paired]
            n = [p[1]["metrics"][name]["value"] for p in paired]
            v, wins = verdict(b, n, m["bound"], lower)
            bq = quartiles(b)
            nq = quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            print(f"{workload:20s} {name:26s} "
                  f"{bq[1]:12.5g} [{bq[0]:8.4g}, {bq[2]:8.4g}] "
                  f"{nq[1]:12.5g} [{nq[0]:8.4g}, {nq[2]:8.4g}] "
                  f"{change:+8.2%} {wins:5.0%}  {v}")
            failed |= v == "regressed"
        fractions = []
        for side in (base, new):
            attempted = sum(r["attempted"] for r in side)
            fractions.append(sum(r["failed"] for r in side) / attempted
                             if attempted else 0.0)
        print(f"{workload:20s} {'failed_op_fraction':26s} "
              f"{fractions[0]:12.4g} {'':21s}{fractions[1]:12.4g}")
        # Medians only, no verdict: these follow the time the host gives the
        # benchmark's CPUs to other guests (host.steal_fraction), so a side
        # that saw more steal reads slower for reasons outside the program.
        for name in UNBOUNDED:
            med = [statistics.median(r["metrics"].get(name, {"value": 0})
                                     ["value"] for r in side)
                   for side in (base, new)]
            change = (med[1] - med[0]) / abs(med[0]) if med[0] else 0.0
            print(f"{workload:20s} {name:26s} {med[0]:12.5g} {'':21s}"
                  f"{med[1]:12.5g} {'':21s}{change:+8.2%}        unbounded")
        if fractions[1] > fractions[0]:
            print(f"{workload:20s} the new side failed more operations")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
