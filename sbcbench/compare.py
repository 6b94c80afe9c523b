"""Compare two sets of benchmark results.

    python3 sbcbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are files (or directories of files) holding the
records that ``run.py`` prints before its result line, e.g. collected
with ``run.py ... >> FILE``.  For every (workload, end-to-end metric) it prints each
side's median and interquartile range (as a share of the median) and a
verdict against the metric's bound in ``BENCHMARK.json``: ``worse`` or
``better`` when the medians differ by more than the bound, ``same``
when they do not, and ``unresolved`` when either side's spread is wider
than the bound, unless every run of one side beats every run of the
other.  Per-layer metrics from traced runs follow, side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import ROOT


def load(path):
    """Records grouped as ``{(workload, trace): [record, ...]}``."""
    path = Path(path)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    groups = {}
    for file in files:
        for line in file.read_text().splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "workload" in record \
                    and "metrics" in record:
                key = (record["workload"], record["trace"])
                groups.setdefault(key, []).append(record)
    return groups


def summary(values):
    """(median, IQR as a share of the median)."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / abs(middle)


def verdict(base, change, better, bound):
    base_median, base_spread = summary(base)
    change_median, change_spread = summary(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change_median - base_median) / abs(base_median) \
        if base_median else 0.0
    beats = (max(change) < min(base)) if better == "lower" \
        else (min(change) > max(base))
    loses = (min(change) > max(base)) if better == "lower" \
        else (max(change) < min(base))
    if max(base_spread, change_spread) > bound and not (beats or loses):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def values_of(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    verdicts = []
    print(f"{'workload':14} {'metric':14} {'base':>12} {'iqr':>7} "
          f"{'change':>12} {'iqr':>7} {'delta':>8}  verdict (bound)")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get((workload, 0), []), change.get((workload, 0), [])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = values_of(a, name), values_of(b, name)
            if not va or not vb:
                continue
            (ma, sa), (mb, sb) = summary(va), summary(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            verdicts.append(result)
            print(f"{workload:14} {name:14} {ma:12.4g} {sa:7.1%} "
                  f"{mb:12.4g} {sb:7.1%} {(mb - ma) / ma:+8.1%}  "
                  f"{result} ({metric['bound']:.0%}, n={len(va)}/{len(vb)})")
    print()
    print(f"{'workload':14} {'per-layer metric':32} {'base':>12} "
          f"{'change':>12} {'delta':>12}")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get((workload, 1), []), change.get((workload, 1), [])
        for metric in spec["per_layer"]:
            name = metric["name"]
            va, vb = values_of(a, name), values_of(b, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue
            print(f"{workload:14} {name:32} {ma:12.4g} {mb:12.4g} "
                  f"{mb - ma:+12.4g}")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
