#!/usr/bin/env python3
"""Compare two series of runs against the bounds in ``BENCHMARK.json``.

    python3 perf/compare.py A.json B.json

A and B are outputs of ``perf/series.py`` (A the parent or first set, B
the change or second set).  Per workload and end-to-end metric it
prints both medians, the change of B against A in the metric's "worse"
direction, and a verdict:

* ``UNRESOLVED`` -- the run-to-run spread (interquartile distance over
  median) of either side is wider than the metric's bound, so the two
  medians cannot be told apart at that bound;
* ``REGRESSED``  -- B's median is worse than A's by more than the bound;
* ``OK``         -- neither.

``setup_s`` is never ``UNRESOLVED``: the contract exempts it from the
spread rule (it is one short measurement per set-up).  Exits 1 if any
line is not ``OK``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPREAD_EXEMPT = ("setup_s",)


def verdict(metric: dict, a: dict, b: dict) -> tuple:
    """``(worse_by, verdict)``; *worse_by* is a share of A's median."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if metric["better"] == "lower" else -change
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if metric["name"] not in SPREAD_EXEMPT and spread > metric["bound"]:
        return worse_by, "UNRESOLVED"
    if worse_by > metric["bound"]:
        return worse_by, "REGRESSED"
    return worse_by, "OK"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(argv[0]) as handle:
        first = json.load(handle)["workloads"]
    with open(argv[1]) as handle:
        second = json.load(handle)["workloads"]
    print(f"{'workload':<18} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    bad = 0
    for workload in first:
        if workload not in second:
            continue
        for metric in metrics:
            a = first[workload][metric["name"]]
            b = second[workload][metric["name"]]
            worse_by, word = verdict(metric, a, b)
            bad += word != "OK"
            print(
                f"{workload:<18} {metric['name']:<14} {a['median']:>12.4f} "
                f"{b['median']:>12.4f} {worse_by:>+9.1%} "
                f"{a.get('spread', 0.0):>9.1%} {b.get('spread', 0.0):>9.1%} "
                f"{metric['bound']:>6.0%}  {word}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
