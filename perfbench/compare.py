#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage:

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) holding the standard
output of perfbench/run.py runs, one run per file. Each run's record
line names its workload and seed; its last line carries the metrics.

For every (workload, metric) the tool prints each side's median and
quartiles, the change of the median, the pair wins and a verdict:

  better / worse  the change wins (loses) at least 9 of every 10 pairs,
                  ties counting for neither side, AND the medians differ
                  by more than the base side's interquartile range;
  same            every pair ties (a deterministic metric);
  unresolved      otherwise.

Runs pair by seed when both sides ran the same seeds, else in file
order. The direction of each metric ("better": "higher" or "lower")
comes from BENCHMARK.json beside this directory; a metric it does not
list counts as lower-is-better when its unit is a time. When the
change's median is worse than the base's by more than the metric's
bound, the row says so ("exceeds bound").
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_directions():
    """metric name -> (better, bound or None) from BENCHMARK.json."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    out = {}
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return out
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        out[m["name"]] = (m["better"], m.get("bound"))
    return out


def parse_run(text):
    """(workload, seed, {metric: (value, unit)}) of one run's output."""
    workload, seed, metrics = None, None, None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "perfbench" in obj:
            workload = obj["perfbench"].get("workload")
            seed = obj["perfbench"].get("seed")
        elif "metrics" in obj:
            metrics = {k: (v["value"], v.get("unit", ""))
                       for k, v in obj["metrics"].items()}
    if workload is None or metrics is None:
        return None
    return workload, seed, metrics


def load_side(path):
    """{workload: [(seed, metrics), ...]} in file order."""
    files = ([path] if os.path.isfile(path) else
             [os.path.join(path, n) for n in sorted(os.listdir(path))])
    runs = {}
    for name in files:
        if not os.path.isfile(name):
            continue
        with open(name, errors="replace") as f:
            run = parse_run(f.read())
        if run is not None:
            runs.setdefault(run[0], []).append((run[1], run[2]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """Paired values by seed when the seed sets agree, else by order."""
    bs = {s: v for s, v in base}
    cs = {s: v for s, v in change}
    if set(bs) == set(cs) and len(bs) == len(base) == len(change):
        return [(bs[s], cs[s]) for s in sorted(bs)]
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base, change, lower_is_better):
    """('better'|'worse'|'same'|'unresolved', wins, losses, pairs)."""
    pb = pairs(base, change)
    wins = sum(1 for b, c in pb if (c < b if lower_is_better else c > b))
    losses = sum(1 for b, c in pb if (c > b if lower_is_better else c < b))
    q1, mb, q3 = quartiles([v for _, v in base])
    mc = statistics.median([v for _, v in change])
    gap = abs(mc - mb)
    if pb and wins == 0 and losses == 0:
        return "same", wins, losses, len(pb)
    if pb and gap > (q3 - q1):
        if wins * 10 >= 9 * len(pb):
            return "better", wins, losses, len(pb)
        if losses * 10 >= 9 * len(pb):
            return "worse", wins, losses, len(pb)
    return "unresolved", wins, losses, len(pb)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    directions = load_directions()
    base = load_side(argv[1])
    change = load_side(argv[2])
    header = ("workload", "metric", "base median [q1, q3]",
              "change median [q1, q3]", "delta", "wins", "verdict")
    rows = []
    for workload in sorted(set(base) & set(change)):
        names = sorted(set().union(*(m for _, m in base[workload])) &
                       set().union(*(m for _, m in change[workload])))
        for name in names:
            b = [(s, m[name][0]) for s, m in base[workload] if name in m]
            c = [(s, m[name][0]) for s, m in change[workload] if name in m]
            unit = base[workload][0][1].get(name, (0, ""))[1]
            better, bound = directions.get(
                name, ("lower" if unit in ("s", "ms") else "higher", None))
            lower = better == "lower"
            v, wins, losses, n = verdict(b, c, lower)
            q1b, mb, q3b = quartiles([x for _, x in b])
            q1c, mc, q3c = quartiles([x for _, x in c])
            delta = (mc - mb) / mb if mb else 0.0
            worse_by = delta if lower else -delta
            if bound is not None and worse_by > bound:
                v += " (exceeds bound)"
            rows.append((workload, name,
                         f"{mb:.5g} [{q1b:.5g}, {q3b:.5g}] {unit}",
                         f"{mc:.5g} [{q1c:.5g}, {q3c:.5g}]",
                         f"{100 * delta:+.2f}%",
                         f"{wins}/{n} (lost {losses})", v))
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
