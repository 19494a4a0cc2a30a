#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark FILE]

Each file holds the JSON lines that `run.py --record FILE` appends; run
the same seeds on both commits, alternating which side runs first. For
every workload and end-to-end metric this prints, in its own row, both
sides' median and quartiles, the share of pairs (i-th run of each side)
the new commit won, and a verdict:

  better      the new side won at least 9/10 of the pairs and the
              medians differ by more than the base side's quartile spread,
              or the spread is wider than the bound but every new run
              reads better than every base run
  worse       the new median is worse than the base median by more than
              the metric's bound
  unresolved  either side's spread (quartile distance / median) is wider
              than the bound
  unchanged   otherwise

It also reports whether the two commits printed byte-identical output
(per-op stdout digests) on the seeds both sides ran.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def improved(new, base, better):
    return new < base if better == "lower" else new > base


def verdict(base, new, better, bound):
    """Verdict for one metric; base and new are per-run values in run
    order (pairs are zip(base, new)). Returns (verdict, share won)."""
    pairs = list(zip(base, new))
    won = sum(improved(n, b, better) for b, n in pairs)
    share = won / len(pairs) if pairs else 0.0
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    spread_wide = ((b3 - b1) / abs(b_med) > bound if b_med else True) or \
                  ((n3 - n1) / abs(n_med) > bound if n_med else True)
    worse_by = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if better == "higher":
        worse_by = -worse_by
    if (share >= 0.9 and abs(n_med - b_med) > b3 - b1 and
            improved(n_med, b_med, better)):
        return "better", share
    if spread_wide:
        every = all(improved(n, b, better) for b in base for n in new)
        return ("better" if every else "unresolved"), share
    if worse_by > bound:
        return "worse", share
    return "unchanged", share


def by_workload(records):
    out = {}
    for r in records:
        if r.get("trace", 0) == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    base, new = by_workload(load(args.base)), by_workload(load(args.new))

    print("%-7s %-12s %-5s %-30s %-30s %6s %5s  %s" % (
        "work", "metric", "unit", "base median [q1, q3]",
        "new median [q1, q3]", "change", "won", "verdict"))
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs]
            v, share = verdict(b, n, metric["better"], metric["bound"])
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print("%-7s %-12s %-5s %-30s %-30s %+5.1f%% %4.0f%%  %s" % (
                workload, name, metric["unit"],
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (nq[1], nq[0], nq[2]),
                100 * change, 100 * share, v))
        failed = sum(r["result"]["failed"] for r in n_runs)
        base_failed = sum(r["result"]["failed"] for r in b_runs)
        print("%-7s ops failed: base %d, new %d" % (workload, base_failed,
                                                    failed))
        b_digests = {r["seed"]: r["digests"] for r in b_runs}
        differ = sorted({op for r in n_runs if r["seed"] in b_digests
                         for op, d in r["digests"].items()
                         if b_digests[r["seed"]].get(op) != d})
        shared = sum(r["seed"] in b_digests for r in n_runs)
        if not shared:
            print("%-7s output: no seed ran on both sides" % workload)
        else:
            print("%-7s output on %d shared seeds: %s" % (
                workload, shared,
                "byte-identical" if not differ else "differs in " +
                ", ".join(differ)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
