"""Compare two benchmark result sets, one row per workload and metric.

A result set is a JSON-lines file of ``{"workload", "seed", "trace",
"result"}`` records, as ``sweep.py`` writes them::

    python3 perfbench/compare.py parent.jsonl change.jsonl

For every end-to-end metric it prints each side's median and quartiles and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: the medians differ by more than the parent's own quartile
  spread and the change wins at least nine tenths of the paired runs;
* ``unresolved``: the parent's quartile spread is wider than the bound and
  not every change run beats every parent run;
* ``unchanged``: otherwise.

Runs pair by seed when both sides ran the same seeds, else in file order.
Per-layer metrics (``--trace 1`` records) are printed as median deltas.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """``{(workload, trace): [record, ...]}`` from a JSON-lines file."""
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], int(record["trace"]))].append(record)
    return runs


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records]


def spread(vals):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def paired(parent, change):
    seeds_p = [r["seed"] for r in parent]
    seeds_c = [r["seed"] for r in change]
    if sorted(seeds_p) == sorted(seeds_c):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(metric, parent, change):
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    a, b = values(parent, name), values(change, name)
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = paired(parent, change)
    wins = sum(
        sign * (y["result"]["metrics"][name]["value"] - x["result"]["metrics"][name]["value"]) > 0
        for x, y in pairs
    )
    if gain < -bound:
        return "worse"
    if gain > spread(a) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    if spread(a) > bound and not min(sign * v for v in b) > max(sign * v for v in a):
        return "unresolved"
    return "unchanged"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    parent, change = load(args.parent), load(args.change)
    fmt = "{:14s} {:28s} {:>30s} {:>30s} {:>8s}  {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                     "delta", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get((workload, 0), []), change.get((workload, 0), [])
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            qa, qb = quartiles(values(a, metric["name"])), quartiles(values(b, metric["name"]))
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(fmt.format(
                workload, metric["name"],
                "/".join(f"{v:.4g}" for v in qa), "/".join(f"{v:.4g}" for v in qb),
                f"{delta:+.1%}", verdict(metric, a, b),
            ))
    print()
    print("{:14s} {:32s} {:>12s} {:>12s} {:>8s}".format(
        "workload", "per-layer metric", "parent", "change", "delta"))
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get((workload, 1), []), change.get((workload, 1), [])
        if not a or not b:
            continue
        for metric in spec["per_layer"]:
            ma = statistics.median(values(a, metric["name"]))
            mb = statistics.median(values(b, metric["name"]))
            if ma == mb == 0:
                continue
            delta = f"{(mb - ma) / abs(ma):+.1%}" if ma else "new"
            print(f"{workload:14s} {metric['name']:32s} {ma:12.5g} {mb:12.5g} {delta:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
