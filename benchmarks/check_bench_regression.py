"""CI gate for the ``repro bench`` harness.

Usage::

    python benchmarks/check_bench_regression.py BENCH_pr5.json \
        benchmarks/BENCH_baseline_pr5.json [--factor 2.0]

Compares a freshly produced BENCH document against the committed
baseline and exits non-zero when the columnar engine regressed.  The
check is ratio-based so it survives machine-speed differences: for each
scenario the *relative* cost ``columnar / naive`` (warm, falling back to
cold) is compared, and a fresh ratio more than ``--factor`` times the
baseline ratio fails.  Two absolute invariants are also enforced on the
fresh document: the MAP scenario must report zone-map pruning
(``partitions_pruned > 0``) and the columnar variant must report result
cache hits -- a silently disabled store or cache would otherwise pass
on speed alone.

With ``--require-persisted``, every scenario carrying a
``store-persisted`` variant must show the disk-native store actually
engaging: warm repeats served blocks from memory maps
(``store_warm.blocks_mapped > 0``) without building any
(``store_warm.blocks_built == 0``), and the mmap warm open beat the
in-memory cold build (``warm_seconds < cold_seconds``).

With ``--require-no-laggards`` (the ROADMAP's "no scenario below 1x vs
naive" target), every scenario reporting a ``columnar_vs_naive_speedup``
must come in at 1.0 or better -- a kernelised operator family that
loses to the record-at-a-time reference engine fails the gate outright,
baseline or no baseline.

With ``--require-sharded-scaling`` (the sharded cluster bench), every
scenario carrying a ``sharded`` matrix must merge byte-identically to
the single-node columnar engine (``identical_to_columnar``), every
multi-node cell must actually move partials over the federation
(``bytes_streamed + bytes_mapped > 0``), and at least one scenario in
the document must show the cluster critical path scaling
(``speedup_max_nodes_vs_1 >= 1.5``).

With ``--require-serving`` (the ``--clients`` run), the document must
carry a ``concurrent_clients`` report in which the warm server answered
every request (no errors), byte-identically to the cold per-invocation
CLI runs, with a nonzero warm result-cache hit rate, and with a p50
latency at least ``SERVE_SPEEDUP_FLOOR`` (3x) better than one
``repro run`` subprocess per query -- the resident server's reason to
exist.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Minimum cluster-critical-path speedup (max nodes vs 1 node) that at
#: least one scenario must reach under ``--require-sharded-scaling``.
SHARDED_SPEEDUP_FLOOR = 1.5

#: Minimum warm-server p50 advantage over the cold per-invocation CLI
#: required under ``--require-serving`` (the ISSUE's acceptance bar).
SERVE_SPEEDUP_FLOOR = 3.0


def _seconds(cell: dict) -> float:
    warm = cell.get("warm_seconds")
    return warm if warm is not None else cell["cold_seconds"]


def _ratio(entry: dict, numerator: str, denominator: str) -> float | None:
    variants = entry["variants"]
    if numerator not in variants or denominator not in variants:
        return None
    reference = _seconds(variants[denominator])
    if not reference:
        return None
    return _seconds(variants[numerator]) / reference


def _persisted_check(scenario: str, entry: dict) -> list:
    """Persisted-store engagement invariants for one scenario."""
    cell = entry["variants"].get("store-persisted")
    if cell is None:
        return []
    failures = []
    warm_stats = cell.get("store_warm", {})
    if warm_stats.get("blocks_mapped", 0) <= 0:
        failures.append(
            f"{scenario}: store-persisted warm runs mapped no blocks "
            f"(the persisted store never engaged)"
        )
    if warm_stats.get("blocks_built", 0) > 0:
        failures.append(
            f"{scenario}: store-persisted warm runs rebuilt "
            f"{warm_stats['blocks_built']} block sets instead of mapping "
            f"persisted segments"
        )
    warm = cell.get("warm_seconds")
    if warm is not None and warm >= cell["cold_seconds"]:
        failures.append(
            f"{scenario}: mmap warm open ({warm:.4f}s) did not beat the "
            f"in-memory cold build ({cell['cold_seconds']:.4f}s)"
        )
    return failures


def _laggard_check(scenario: str, entry: dict) -> list:
    """The no-laggards rule: columnar must not lose to naive."""
    speedup = entry.get("columnar_vs_naive_speedup")
    if speedup is None or speedup >= 1.0:
        return []
    return [
        f"{scenario}: columnar_vs_naive_speedup {speedup:.2f} is below "
        f"1.0 (the columnar kernel loses to the naive engine)"
    ]


def _sharded_check(scenario: str, entry: dict) -> list:
    """Sharded-cluster engagement invariants for one scenario."""
    matrix = entry.get("sharded")
    if matrix is None:
        return []
    failures = []
    if matrix.get("identical_to_columnar") is False:
        failures.append(
            f"{scenario}: sharded merge is not byte-identical to the "
            f"single-node columnar result"
        )
    for count, cell in matrix.get("nodes", {}).items():
        if int(count) < 2:
            continue
        moved = cell.get("bytes_streamed", 0) + cell.get("bytes_mapped", 0)
        if moved <= 0:
            failures.append(
                f"{scenario}: sharded x{count} moved no partial bytes "
                f"(neither streamed nor mapped -- the federation never "
                f"engaged)"
            )
        if cell.get("degraded"):
            failures.append(
                f"{scenario}: sharded x{count} ran degraded "
                f"(shards were skipped on a healthy cluster)"
            )
    return failures


def _sharded_scaling_check(fresh: dict) -> list:
    """Document-level scaling floor: one scenario must hit the target."""
    speedups = [
        entry["sharded"]["speedup_max_nodes_vs_1"]
        for entry in fresh["scenarios"].values()
        if entry.get("sharded", {}).get("speedup_max_nodes_vs_1") is not None
    ]
    if not speedups:
        return ["no scenario carries a sharded multi-node matrix"]
    best = max(speedups)
    if best >= SHARDED_SPEEDUP_FLOOR:
        return []
    return [
        f"best sharded cluster speedup (max nodes vs 1) is {best:.2f}x, "
        f"below the {SHARDED_SPEEDUP_FLOOR}x floor"
    ]


def _serving_check(fresh: dict) -> list:
    """Warm-server engagement invariants for the serving scenario."""
    report = fresh.get("concurrent_clients")
    if report is None:
        return ["document carries no concurrent_clients report "
                "(was the bench run with --clients?)"]
    failures = []
    warm = report.get("warm_server", {})
    if warm.get("errors", 0):
        failures.append(
            f"concurrent-clients: {warm['errors']} request(s) failed "
            f"(first: {warm.get('error_detail')})"
        )
    if not report.get("identical_to_cli"):
        failures.append(
            "concurrent-clients: served results are not byte-identical "
            "to the cold CLI runs"
        )
    if warm.get("cache_hit_rate", 0.0) <= 0.0:
        failures.append(
            "concurrent-clients: warm server reports a zero result-cache "
            "hit rate (warm state never engaged)"
        )
    speedup = report.get("warm_p50_speedup_vs_cold_cli")
    if speedup is None or speedup < SERVE_SPEEDUP_FLOOR:
        failures.append(
            f"concurrent-clients: warm-server p50 speedup vs cold CLI is "
            f"{speedup if speedup is None else f'{speedup:.2f}x'}, below "
            f"the {SERVE_SPEEDUP_FLOOR}x floor"
        )
    return failures


def check(
    fresh: dict, baseline: dict, factor: float,
    require_persisted: bool = False, require_no_laggards: bool = False,
    require_sharded_scaling: bool = False, require_serving: bool = False,
) -> list:
    """All failure messages (empty when the gate passes)."""
    failures = []
    if require_serving:
        failures.extend(_serving_check(fresh))
    for scenario, entry in fresh["scenarios"].items():
        if not entry.get("identical_results", True):
            failures.append(f"{scenario}: engine variants disagree on results")
        if require_persisted:
            failures.extend(_persisted_check(scenario, entry))
        if require_no_laggards:
            failures.extend(_laggard_check(scenario, entry))
        if require_sharded_scaling:
            failures.extend(_sharded_check(scenario, entry))
        base_entry = baseline["scenarios"].get(scenario)
        if base_entry is None:
            continue
        fresh_ratio = _ratio(entry, "columnar", "naive")
        base_ratio = _ratio(base_entry, "columnar", "naive")
        if fresh_ratio is not None and base_ratio:
            if fresh_ratio > base_ratio * factor:
                failures.append(
                    f"{scenario}: columnar/naive ratio regressed "
                    f"{fresh_ratio:.2f} vs baseline {base_ratio:.2f} "
                    f"(allowed factor {factor})"
                )
    if require_sharded_scaling:
        failures.extend(_sharded_scaling_check(fresh))
    map_entry = fresh["scenarios"].get("map", {})
    columnar = map_entry.get("variants", {}).get("columnar")
    if columnar is not None:
        if columnar.get("partitions_pruned", 0) <= 0:
            failures.append(
                "map: columnar variant reports no zone-map pruning "
                "(partitions_pruned == 0)"
            )
        if columnar.get("cache", {}).get("hits", 0) <= 0:
            failures.append(
                "map: columnar variant reports no result-cache hits"
            )
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="BENCH JSON produced by this run")
    parser.add_argument("baseline", help="committed baseline BENCH JSON")
    parser.add_argument(
        "--factor", type=float, default=2.0,
        help="allowed slowdown of the columnar/naive ratio (default: 2.0)",
    )
    parser.add_argument(
        "--require-persisted", action="store_true",
        help="additionally require the store-persisted variant to serve "
             "warm runs from memory-mapped segments, rebuild nothing, "
             "and beat its own cold build",
    )
    parser.add_argument(
        "--require-no-laggards", action="store_true",
        help="additionally fail any scenario whose "
             "columnar_vs_naive_speedup is below 1.0",
    )
    parser.add_argument(
        "--require-sharded-scaling", action="store_true",
        help="additionally require sharded matrices to merge identically "
             "to columnar, move partial bytes on multi-node cells, and "
             "show a >= 1.5x cluster critical-path speedup somewhere",
    )
    parser.add_argument(
        "--require-serving", action="store_true",
        help="additionally require the concurrent_clients report to show "
             "error-free, CLI-identical served results, a nonzero warm "
             "cache hit rate, and a >= 3x p50 advantage over cold CLI "
             "invocations",
    )
    args = parser.parse_args(argv)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    failures = check(fresh, baseline, args.factor,
                     args.require_persisted, args.require_no_laggards,
                     args.require_sharded_scaling, args.require_serving)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench regression gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
