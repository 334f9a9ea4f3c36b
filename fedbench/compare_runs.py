#!/usr/bin/env python3
"""Compare two sets of fedbench runs under BENCHMARK.json's bounds.

    python3 fedbench/compare_runs.py <parent_dir> <change_dir> [--same-code]

Each directory holds the *.result.json files fedbench/run.py wrote to
.bench_out (untraced runs; copy them aside between commits). One row is
printed per (workload, end-to-end metric) with a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  improved    the change wins at least 9/10 of the pairs (runs paired by
              seed, ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run reads better than every parent run;
  unchanged   otherwise.

--same-code checks two sets of runs of the same code: every row must read
unchanged and every seed both sides ran must give the same digest (round
CSV + final weights). Exits nonzero on a regression or a failed
--same-code check.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.result.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def spread(values):
    """Interquartile range, and that range as a share of the median."""
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q3 - q1, (q3 - q1) / abs(med) if med else 0.0


def verdict(a_runs, b_runs, name, bound, lower_better):
    a = [r["metrics"][name]["value"] for r in a_runs.values()]
    b = [r["metrics"][name]["value"] for r in b_runs.values()]
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if lower_better else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    iqr_a, rel_a = spread(a)
    _, rel_b = spread(b)
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    pairs = [(a_runs[s]["metrics"][name]["value"], b_runs[s]["metrics"][name]["value"])
             for s in sorted(set(a_runs) & set(b_runs))]
    wins = sum(1 for x, y in pairs if better(y, x))
    all_better = all(better(y, x) for x in a for y in b)
    if worse > bound:
        v = "regressed"
    elif (better(med_b, med_a) and pairs and wins >= 0.9 * len(pairs)
          and abs(med_b - med_a) > iqr_a):
        v = "improved"
    elif max(rel_a, rel_b) > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return med_a, med_b, worse, rel_a, rel_b, wins, len(pairs), v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--same-code", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_all, b_all = load(args.parent_dir), load(args.change_dir)

    ok = True
    print("%-20s %-17s %14s %14s %8s %7s %7s %5s  %s" % (
        "workload", "metric", "parent_med", "change_med", "worse%", "iqr_p%",
        "iqr_c%", "wins", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = a_all.get(w, {}), b_all.get(w, {})
        if not a_runs or not b_runs:
            print("%-20s (no runs on %s side)" % (w, "parent" if not a_runs else "change"))
            ok = False
            continue
        for m in spec["end_to_end"]:
            med_a, med_b, worse, rel_a, rel_b, wins, n, v = verdict(
                a_runs, b_runs, m["name"], m["bound"], m["better"] == "lower")
            print("%-20s %-17s %14.6g %14.6g %8.2f %7.2f %7.2f %2d/%-2d  %s" % (
                w, m["name"], med_a, med_b, 100 * worse, 100 * rel_a, 100 * rel_b,
                wins, n, v))
            if v == "regressed" or (args.same_code and v != "unchanged"):
                ok = False
        if args.same_code:
            for s in sorted(set(a_runs) & set(b_runs)):
                if a_runs[s]["digest"] != b_runs[s]["digest"]:
                    print("%-20s seed %s: digest %s != %s" % (
                        w, s, a_runs[s]["digest"], b_runs[s]["digest"]))
                    ok = False
        bad = sorted({s for runs in (a_runs, b_runs) for s, r in runs.items()
                      if not r["correct"]})
        if bad:
            print("%-20s correctness checks failed for seeds %s" % (w, bad))
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
