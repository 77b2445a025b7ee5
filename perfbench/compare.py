#!/usr/bin/env python3
"""Compare two sets of perfbench runs (stdlib only).

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a directory of saved run outputs, or a list of
such files separated by commas: the captured stdout of
`perfbench/run.py`, or the copies it keeps in .bench_build/results/.
A file counts when it holds a `perfbench {...}` header line followed
by the result line.

For every workload and metric it prints each side's median and
quartiles, then a verdict on the end-to-end metrics, following the
bounds in BENCHMARK.json:

  better / worse  the new side wins (loses) at least 9 of 10 pairs and
                  the medians differ by more than the old side's
                  quartile distance; runs pair by seed when both sides
                  used the same seeds, else in file order
  regression      the new median is worse than the old one by more
                  than the metric's bound
  unresolved      a side's quartile distance exceeds the bound (as a
                  share of its median), unless every new run beats
                  every old run
  same            none of the above

Per-layer metrics have no bound; they get medians and quartiles only.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(spec):
    """{(workload, trace): [(seed, result), ...]} from a directory or a
    comma-separated file list."""
    if os.path.isdir(spec):
        paths = sorted(os.path.join(spec, name)
                       for name in os.listdir(spec))
    else:
        paths = spec.split(",")
    runs = {}
    for path in paths:
        header = result = None
        with open(path) as f:
            for line in f:
                if line.startswith("perfbench {"):
                    header = json.loads(line[len("perfbench "):])
                elif line.startswith("{") and header is not None:
                    result = json.loads(line)
        if header is None or result is None:
            continue
        key = (header["workload"], header["trace"])
        runs.setdefault(key, []).append((header["seed"], result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(old, new):
    """Pair runs by seed when both sides used the same seeds, else in
    order."""
    old_seeds = [seed for seed, _ in old]
    new_seeds = [seed for seed, _ in new]
    if len(set(old_seeds)) == len(old_seeds) and \
            sorted(old_seeds) == sorted(new_seeds):
        by_seed = dict(new)
        return [(result, by_seed[seed]) for seed, result in old]
    return [(a, b) for (_, a), (_, b) in zip(old, new)]


def verdict(spec, old, new):
    """The verdict on one end-to-end metric, as the module docs say."""
    name, bound = spec["name"], spec["bound"]
    sign = 1.0 if spec["better"] == "higher" else -1.0
    olds = [r["metrics"][name]["value"] for _, r in old]
    news = [r["metrics"][name]["value"] for _, r in new]
    o1, om, o3 = quartiles(olds)
    n1, nm, n3 = quartiles(news)
    paired = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
              for a, b in pairs(old, new)]
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    losses = sum(1 for a, b in paired if sign * (b - a) < 0)
    separated = abs(nm - om) > (o3 - o1)
    if paired and separated and wins >= 0.9 * len(paired):
        return "better"
    if paired and separated and losses >= 0.9 * len(paired):
        return "worse"
    if sign * (nm - om) < -bound * abs(om):
        return "regression"
    all_better = min(sign * v for v in news) > max(sign * v for v in olds)
    too_wide = any(m and (q3 - q1) / abs(m) > bound
                   for q1, m, q3 in ((o1, om, o3), (n1, nm, n3)))
    if too_wide and not all_better:
        return "unresolved"
    return "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    with open(BENCHMARK) as f:
        bench = json.load(f)
    status = 0
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        a, b = old.get(key, []), new.get(key, [])
        print(f"\n{workload} ({'traced' if trace else 'end to end'}): "
              f"{len(a)} old run(s), {len(b)} new run(s)")
        bad = [s for s, r in a + b if not r["correct"]]
        if bad:
            print(f"  runs with failed checks (seeds): {sorted(bad)}")
            status = 1
        if not a or not b:
            continue
        specs = bench["per_layer" if trace else "end_to_end"]
        print(f"  {'metric':34s} {'old median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s}  verdict")
        for spec in specs:
            name = spec["name"]
            if any(name not in r["metrics"] for _, r in a + b):
                continue
            cols = []
            for runs in (a, b):
                q1, m, q3 = quartiles(
                    [r["metrics"][name]["value"] for _, r in runs])
                cols.append(f"{m:.5g} [{q1:.5g}, {q3:.5g}]")
            v = "" if trace else verdict(spec, a, b)
            if v in ("regression", "worse"):
                status = 1
            print(f"  {name:34s} {cols[0]:>34s} {cols[1]:>34s}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
