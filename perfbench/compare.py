#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and per metric.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds the standard output of several runs appended together
(for example `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0 >> BASE.txt` for N = 1..10, once per workload).  Each run's
fingerprint line names its workload; the result line after it holds its
metrics.  Runs pair up in file order, so run the same seeds in the same
order on both sides, alternating sides.

For every metric it prints each side's median and quartiles, how many
pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the base's quartile distance
  regression  the change's median is worse than the base's by more
              than the metric's bound in BENCHMARK.json
  unresolved  a side's quartile spread exceeds the bound (unless every
              change run beat every base run)
  same        none of the above

It only reports; the exit code is 0 whatever the verdicts.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """{workload: [metrics dict per run]} from concatenated run output."""
    runs = {}
    workload = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "fingerprint" in obj:
                workload = obj["fingerprint"].get("workload")
            elif "metrics" in obj and workload is not None:
                runs.setdefault(workload, []).append(
                    {k: v["value"] for k, v in obj["metrics"].items()})
                workload = None
    return runs


def load_spec():
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    for candidate in (os.path.join(os.getcwd(), "BENCHMARK.json"),
                      os.path.join(HERE, "..", "BENCHMARK.json")):
        if os.path.isfile(candidate):
            with open(candidate) as f:
                spec = json.load(f)
            out = {}
            for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
                out[m["name"]] = (m["better"], m.get("bound"))
            return out
    return {}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    pairs = min(len(base), len(change))
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (bound is not None and not all_better and
            max(spread(base), spread(change)) > bound):
        return wins, pairs, "unresolved"
    if (pairs and wins >= 0.9 * pairs and
            sign * (c_med - b_med) > (b_q3 - b_q1)):
        return wins, pairs, "gain"
    if bound is not None and sign * (c_med - b_med) < -bound * abs(b_med):
        return wins, pairs, "regression"
    return wins, pairs, "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_runs, change_runs = load_runs(argv[0]), load_runs(argv[1])
    spec = load_spec()
    for workload in sorted(set(base_runs) | set(change_runs)):
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        print("== %s: %d base run(s), %d change run(s)" %
              (workload, len(base), len(change)))
        if not base or not change:
            print("   (missing on one side)")
            continue
        print("   %-34s %-32s %-32s %-9s %s" %
              ("metric", "base median [q1, q3]", "change median [q1, q3]",
               "won", "verdict"))
        for name in base[0]:
            a = [r[name] for r in base if name in r]
            b = [r[name] for r in change if name in r]
            if not a or not b:
                continue
            better, bound = spec.get(name, ("higher", None))
            wins, pairs, result = verdict(a, b, better, bound)
            qa, qb = quartiles(a), quartiles(b)
            print("   %-34s %-32s %-32s %-9s %s" % (
                name,
                "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                "%d/%d" % (wins, pairs), result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
