#!/usr/bin/env python3
"""Run the benchmark several times per workload and keep every value.

    python3 perf/series.py --out A.json [--runs 10] [--first-seed 42]
                           [--workload NAME ...] [--trace 0|1]

Each run is one ``perf/run.py`` invocation with its own seed
(``first-seed``, ``first-seed + 1``, ...).  The output holds, per
workload and metric, every value plus median, quartiles and spread
(interquartile distance over median) -- what ``perf/compare.py`` reads
and what ``perf/baseline.json`` is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def summarise(values: list) -> dict:
    """Median, quartiles and spread the way the benchmark contract does."""
    median = statistics.median(values)
    summary = {"values": values, "median": median}
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
        summary.update(
            q1=q1, q3=q3,
            spread=(q3 - q1) / abs(median) if median else 0.0,
        )
    return summary


def run_once(workload: str, seed: int, trace: int, extra: list) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + extra,
        capture_output=True, text=True, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited with {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=42)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    extra = [] if args.seconds is None else ["--seconds", str(args.seconds)]

    document = {
        "environment": environment(),
        "run_seconds": args.seconds or bench["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workload or names:
        samples: dict = {}
        for seed in document["seeds"]:
            result = run_once(workload, seed, args.trace, extra)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()
            ), flush=True)
        document["workloads"][workload] = {
            name: summarise(values) for name, values in samples.items()
        }
        # Rewritten after every workload, so a long series can be read
        # (and survives an interruption) before it ends.
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
