"""The ``repro bench`` harness: section-2 scenarios across engines.

Runs the paper's headline region operations (MAP, JOIN, COVER over
simulated ENCODE-shaped data, see :mod:`repro.simulate`) on a matrix of
engine variants and writes one BENCH JSON document:

* ``naive`` -- the reference row-at-a-time kernels;
* ``columnar`` -- columnar kernels over store blocks with zone-map
  pruning *and* the plan-fingerprint result cache: cold run pays the
  kernels, warm runs hit the cache;
* ``auto`` -- per-node routing over the same store;
* ``parallel`` -- the same columnar operators with their kernels on a
  process pool (``medium``/``full`` scales, where worker start-up
  amortises); the cell records how many block bytes travelled through
  shared-memory segments, pickles and mmap handles;
* ``store-persisted`` -- the columnar kernels over the disk-native
  persisted store (:mod:`repro.store.persist`): sources are regenerated
  before *every* repeat so nothing survives in process memory, the cold
  run pays in-memory block build plus the synchronous persist, and the
  warm runs open the content-addressed segments via ``np.memmap`` --
  the cold-build vs mmap-open delta is the number the persistent store
  exists to win;
* ``sharded`` -- sharded cluster execution over a
  :class:`~repro.federation.cluster.LocalCluster` of worker node
  processes, one matrix per node count (``--nodes``): sources are
  partitioned into chromosome shards across the nodes, sub-plans are
  pushed to the shard owners, and the streamed partials are merged
  client-side.  On a time-sliced test box the wall clock cannot show
  multi-host scaling, so each cell also records ``cluster_seconds`` --
  the slowest node's self-measured kernel time plus the client merge,
  the critical path a real cluster would pay -- and the scaling claim
  (``speedup_max_nodes_vs_1``) is made on that number.

Every variant regenerates its sources from the same seed, so store
blocks memoised by one variant never subsidise another, and every
variant's result digest is compared for byte-identity.  Each scenario
records wall times, the ``store.partitions_pruned`` counter, and the
result-cache hit/miss statistics -- the numbers the CI regression gate
(``benchmarks/check_bench_regression.py``) checks.
"""

from __future__ import annotations

import json

from repro.resilience.clock import perf_counter
from repro.engine.context import ExecutionContext
from repro.engine.dispatch import get_backend
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.store.cache import reset_result_cache, result_cache
from repro.store.columnar import reset_store_counters, store_counters

#: Scenario programs: the section-2 shapes, one operator in the spotlight.
PROGRAMS = {
    "map": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "map_avg": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(avg_p AS AVG(p_value)) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "map_max": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(max_p AS MAX(p_value)) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(DLE(20000); output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join_md1": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(MD(1); output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join_up": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(DLE(20000), UP; output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "cover": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = COVER(2, ANY) PEAKS;
        MATERIALIZE RESULT;
    """,
    "flat_summit": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        F = FLAT(1, ANY) PEAKS;
        S = SUMMIT(2, ANY) PEAKS;
        MATERIALIZE F;
        MATERIALIZE S;
    """,
    "histogram": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = HISTOGRAM(1, ANY) PEAKS;
        MATERIALIZE RESULT;
    """,
}

#: Data sizes: ``tiny`` for unit tests, ``smoke`` for the CI bench job,
#: ``medium`` for the JOIN/MAP kernel and shared-memory numbers,
#: ``full`` for the committed baseline numbers.
SCALES = {
    "tiny": {"n_genes": 60, "n_enhancers": 30, "n_samples": 3,
             "peaks_per_sample_mean": 40},
    "smoke": {"n_genes": 200, "n_enhancers": 100, "n_samples": 8,
              "peaks_per_sample_mean": 150},
    "medium": {"n_genes": 1500, "n_enhancers": 800, "n_samples": 4,
               "peaks_per_sample_mean": 3000},
    "full": {"n_genes": 400, "n_enhancers": 200, "n_samples": 32,
             "peaks_per_sample_mean": 400},
}

#: ``(variant name, engine, result cache enabled, persisted store)``.
VARIANTS = (
    ("naive", "naive", False, False),
    ("columnar", "columnar", True, False),
    ("auto", "auto", True, False),
    ("parallel", "parallel", False, False),
    ("store-persisted", "columnar", False, True),
)


def default_variants(scale: str) -> tuple:
    """Variant names benched at *scale* (fan-out pays off at medium+)."""
    names = [name for name, *_ in VARIANTS]
    if scale in ("tiny", "smoke"):
        names.remove("parallel")
    return tuple(names)


def _sources(scale: str, seed: int) -> dict:
    """Freshly generated source datasets (fresh store memos included)."""
    from repro.simulate import EncodeRepository, GenomeLayout

    params = SCALES[scale]
    layout = GenomeLayout.generate(
        seed=seed,
        n_genes=params["n_genes"],
        n_enhancers=params["n_enhancers"],
    )
    repo = EncodeRepository.generate(
        seed=seed,
        n_samples=params["n_samples"],
        peaks_per_sample_mean=params["peaks_per_sample_mean"],
        layout=layout,
    )
    return {"ANNOTATIONS": repo.annotations, "ENCODE": repo.encode}


def _result_digest(results: dict) -> str:
    """Engine-independent digest of every materialised dataset's rows.

    Delegates to :func:`repro.gdm.digest.results_digest` -- the same
    definition the query server returns with every response -- so bench
    identity checks and served-result identity checks agree by
    construction.
    """
    from repro.gdm.digest import results_digest

    return results_digest(results)


def _run_variant(
    program: str,
    scale: str,
    seed: int,
    engine: str,
    cache_enabled: bool,
    persisted: bool,
    repeat: int,
    bin_size: int | None,
    workers: int | None,
    cold_repeat: int = 1,
) -> dict:
    """Time one (scenario, variant) cell: cold run plus warm repeats.

    The ``store-persisted`` variant regenerates its sources before every
    repeat (so block memos never survive between runs, modelling a fresh
    process) and routes the storage layer at a throwaway persistent
    store root with synchronous persistence: repeat 0 measures build +
    persist + kernels, later repeats measure mmap open + kernels.

    ``cold_repeat`` > 1 steadies the cold number: that many independent
    cold runs are timed -- fresh sources and a cleared result cache each
    time, so nothing warm survives between them -- and the minimum wins.
    A single cold sample at millisecond scale is hostage to scheduler
    noise, which matters once gates compare cold ratios.  Persisted
    cells keep one cold run: their first run writes the segments that
    define every later run as warm.
    """
    import shutil
    import tempfile

    from repro.store.persist import set_store_root

    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-") if persisted \
        else None
    sources = _sources(scale, seed)
    compiled = optimize(compile_program(program))
    reset_result_cache()
    extra_colds = []
    if not persisted:
        for __ in range(max(1, cold_repeat) - 1):
            context = ExecutionContext(
                workers=workers,
                bin_size=bin_size,
                result_cache=cache_enabled,
            )
            backend = get_backend(engine)
            started = perf_counter()
            try:
                Interpreter(
                    backend, sources, context=context
                ).run_program(compiled)
            finally:
                backend.close()
            extra_colds.append(perf_counter() - started)
            sources = _sources(scale, seed)
            reset_result_cache()
    runs = []
    pruned_cold = 0
    shm_shared_cold = 0
    shm_pickled_cold = 0
    shm_mapped_warm = 0
    regions_emitted = 0
    store_stats_cold: dict = {}
    store_stats_warm: dict = {}
    digest = None
    try:
        if persisted:
            set_store_root(store_dir, sync=True)
        for iteration in range(max(1, repeat)):
            if persisted:
                # Per-iteration block accounting: the process-wide
                # counters also see stores on derived datasets (a COVER
                # over a SELECT result never touches a source store).
                reset_store_counters()
            if persisted and iteration:
                # Fresh datasets (same content): nothing survives in
                # memory, only the persisted segments on disk.
                sources = _sources(scale, seed)
            context = ExecutionContext(
                workers=workers,
                bin_size=bin_size,
                result_cache=cache_enabled,
            )
            backend = get_backend(engine)
            started = perf_counter()
            try:
                results = Interpreter(
                    backend, sources, context=context
                ).run_program(compiled)
            finally:
                backend.close()
            runs.append(perf_counter() - started)
            if iteration == 0:
                pruned_cold = context.metrics.counter(
                    "store.partitions_pruned"
                )
                shm_shared_cold = context.metrics.counter("shm.bytes_shared")
                shm_pickled_cold = context.metrics.counter(
                    "shm.bytes_pickled"
                )
                regions_emitted = sum(
                    dataset.region_count() for dataset in results.values()
                )
                digest = _result_digest(results)
                if persisted:
                    store_stats_cold = _store_stats(sources)
            else:
                shm_mapped_warm = max(
                    shm_mapped_warm,
                    context.metrics.counter("shm.bytes_mapped"),
                )
                if persisted:
                    store_stats_warm = _store_stats(sources)
    finally:
        if persisted:
            set_store_root(None)
            shutil.rmtree(store_dir, ignore_errors=True)
    cache = result_cache().stats()
    cell = {
        "engine": engine,
        "result_cache_enabled": cache_enabled,
        "persisted_store": persisted,
        "cold_seconds": min(extra_colds + [runs[0]]),
        "warm_seconds": min(runs[1:]) if len(runs) > 1 else None,
        "runs_seconds": extra_colds + runs,
        "partitions_pruned": pruned_cold,
        "regions_emitted": regions_emitted,
        "shm_bytes_shared": shm_shared_cold,
        "shm_bytes_pickled": shm_pickled_cold,
        "shm_bytes_mapped": shm_mapped_warm,
        "cache": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "evictions": cache["evictions"],
        },
        "digest": digest,
    }
    if persisted:
        cell["store_cold"] = store_stats_cold
        cell["store_warm"] = store_stats_warm
    return cell


def _store_stats(sources: dict) -> dict:
    """Block counters for this iteration plus source-store residency.

    Built/mapped/evicted come from the process-wide counters (reset at
    the top of every persisted iteration) so block activity on derived
    datasets -- COVER and friends run against the SELECT output's store,
    not a source store -- is visible.  Residency is a point-in-time
    gauge, so it still reads from the stores the bench can reach.
    """
    totals = store_counters()
    totals["resident_bytes"] = sum(
        dataset.store_stats()["resident_bytes"]
        for dataset in sources.values()
    )
    return totals


def _run_sharded_matrix(
    program: str,
    scale: str,
    seed: int,
    nodes: tuple,
    repeat: int,
    workers: int | None,
    baseline_digest: str | None,
) -> dict:
    """Time one scenario over local clusters of each size in *nodes*.

    Every node count gets its own cluster over freshly generated sources
    and a throwaway persistent store root (so co-resident partials can
    come back over the mmap handle path).  The worker-side result cache
    is off by default, so every repeat recomputes the kernels; the
    minimum over repeats is reported, and the traffic/placement counters
    are snapshotted after the first (cold) run.
    """
    import shutil
    import tempfile

    from repro.federation import LocalCluster

    matrix: dict = {"nodes": {}}
    for count in nodes:
        sources = _sources(scale, seed)
        context = ExecutionContext(workers=workers)
        store_dir = tempfile.mkdtemp(prefix="repro-bench-shard-")
        walls: list = []
        cluster_times: list = []
        cell: dict = {}
        try:
            with LocalCluster(
                sources,
                nodes=count,
                store_root=store_dir,
                context=context,
                seed=seed,
            ) as cluster:
                for iteration in range(max(1, repeat)):
                    started = perf_counter()
                    outcome = cluster.run(program)
                    walls.append(perf_counter() - started)
                    cluster_times.append(outcome.cluster_seconds())
                    if iteration == 0:
                        counter = context.metrics.counter
                        cell = {
                            "digest": _result_digest(outcome.datasets or {}),
                            "node_seconds": dict(outcome.node_seconds),
                            "merge_seconds": outcome.merge_seconds,
                            "degraded": outcome.degraded,
                            "bytes_streamed": counter(
                                "federation.bytes_streamed"
                            ),
                            "bytes_mapped": counter("federation.bytes_mapped"),
                            "shards_placed": counter(
                                "federation.shards_placed"
                            ),
                            "shards_skipped": counter(
                                "federation.shards_skipped"
                            ),
                        }
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        cell["wall_seconds"] = min(walls)
        cell["cluster_seconds"] = min(cluster_times)
        matrix["nodes"][str(count)] = cell
    cells = matrix["nodes"]
    if baseline_digest is not None:
        matrix["identical_to_columnar"] = all(
            cell["digest"] == baseline_digest for cell in cells.values()
        )
    counts = sorted(int(count) for count in cells)
    if len(counts) > 1:
        smallest = cells[str(counts[0])]["cluster_seconds"]
        largest = cells[str(counts[-1])]["cluster_seconds"]
        matrix["speedup_max_nodes_vs_1"] = (
            smallest / largest if largest else None
        )
    return matrix


def _reference_digest(
    program: str,
    scale: str,
    seed: int,
    bin_size: int | None,
    workers: int | None,
) -> str:
    """Digest of a single-node columnar run (the sharded identity bar)."""
    sources = _sources(scale, seed)
    compiled = optimize(compile_program(program))
    reset_result_cache()
    context = ExecutionContext(
        workers=workers, bin_size=bin_size, result_cache=False
    )
    backend = get_backend("columnar")
    try:
        results = Interpreter(backend, sources, context=context).run_program(
            compiled
        )
    finally:
        backend.close()
    return _result_digest(results)


def run_bench(
    scale: str = "smoke",
    scenarios: tuple | None = None,
    variants: tuple | None = None,
    repeat: int = 3,
    bin_size: int | None = None,
    workers: int | None = None,
    seed: int = 42,
    cold_repeat: int = 1,
    nodes: tuple = (1, 2, 4),
    clients: int | None = None,
    client_requests: int = 6,
    serve_engine: str = "auto",
) -> dict:
    """Run the benchmark matrix; returns the BENCH document (plain dict).

    With *clients* set, the ``concurrent-clients`` serving scenario
    (:mod:`repro.serve.bench`) also runs: that many client threads
    against a warm in-process query server, compared against one cold
    ``repro run`` subprocess per query, reported under the document's
    ``concurrent_clients`` key.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    scenario_names = tuple(scenarios or PROGRAMS)
    variant_names = tuple(variants or default_variants(scale))
    sharded = "sharded" in variant_names
    variant_names = tuple(
        name for name in variant_names if name != "sharded"
    )
    by_name = {name: spec for name, *spec in VARIANTS}
    document = {
        "bench": "pr10",
        "scale": scale,
        "repeat": repeat,
        "seed": seed,
        "bin_size": bin_size,
        "scenarios": {},
    }
    if sharded:
        document["nodes"] = list(nodes)
    for scenario in scenario_names:
        program = PROGRAMS[scenario]
        cells = {}
        for variant in variant_names:
            engine, cache_enabled, persisted = by_name[variant]
            cells[variant] = _run_variant(
                program, scale, seed, engine, cache_enabled, persisted,
                repeat, bin_size, workers, cold_repeat=cold_repeat,
            )
        digests = {cell["digest"] for cell in cells.values()}
        entry = {
            "variants": cells,
            "identical_results": not cells or len(digests) == 1,
        }
        if sharded:
            baseline_digest = (
                cells["columnar"]["digest"] if "columnar" in cells
                else _reference_digest(program, scale, seed, bin_size, workers)
            )
            entry["sharded"] = _run_sharded_matrix(
                program, scale, seed, nodes, repeat, workers, baseline_digest
            )
        store_cell = cells.get("columnar")
        naive_cell = cells.get("naive")
        if naive_cell and store_cell:
            cold = store_cell["cold_seconds"]
            entry["columnar_vs_naive_speedup"] = (
                naive_cell["cold_seconds"] / cold if cold else None
            )
        persisted_cell = cells.get("store-persisted")
        if persisted_cell and persisted_cell["warm_seconds"]:
            # Cold = in-memory block build + synchronous persist +
            # kernels; warm = mmap open + kernels.  The satellite's
            # cold-build vs mmap-open delta.
            entry["persisted_open_vs_cold_build_speedup"] = (
                persisted_cell["cold_seconds"]
                / persisted_cell["warm_seconds"]
            )
        document["scenarios"][scenario] = entry
    if clients:
        from repro.serve.bench import run_concurrent_clients_bench

        document["concurrent_clients"] = run_concurrent_clients_bench(
            scale=scale,
            seed=seed,
            clients=clients,
            requests_per_client=client_requests,
            engine=serve_engine,
            workers=workers,
        )
    return document


def write_bench(document: dict, path: str) -> None:
    """Write the BENCH document as indented JSON (creating parent dirs)."""
    import os

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_summary(document: dict) -> str:
    """Human-readable table of the BENCH document (CLI output)."""
    lines = [
        f"bench {document['bench']}  scale={document['scale']}"
        f"  repeat={document['repeat']}"
    ]
    for scenario, entry in document["scenarios"].items():
        lines.append(f"\n{scenario}:")
        for variant, cell in entry["variants"].items():
            warm = cell["warm_seconds"]
            warm_text = f"{warm * 1000:9.1f}" if warm is not None else "        -"
            lines.append(
                f"  {variant:<18} cold {cell['cold_seconds'] * 1000:9.1f} ms"
                f"  warm {warm_text} ms"
                f"  pruned {cell['partitions_pruned']:>6}"
                f"  cache {cell['cache']['hits']}/{cell['cache']['misses']}"
            )
        for variant, cell in entry["variants"].items():
            if cell["shm_bytes_shared"] or cell["shm_bytes_pickled"]:
                lines.append(
                    f"  {variant:<18} shipped"
                    f" {cell['shm_bytes_shared']:>12,} B shm"
                    f" / {cell['shm_bytes_pickled']:>12,} B pickled"
                )
        if not entry["identical_results"]:
            lines.append("  WARNING: variants disagree on result content")
        speedup = entry.get("columnar_vs_naive_speedup")
        if speedup is not None:
            lines.append(
                f"  columnar vs naive: {speedup:.1f}x cold"
            )
        speedup = entry.get("persisted_open_vs_cold_build_speedup")
        if speedup is not None:
            lines.append(
                f"  persisted store: mmap open vs cold build+persist:"
                f" {speedup:.1f}x"
            )
        sharded = entry.get("sharded")
        if sharded:
            for count in sorted(sharded["nodes"], key=int):
                cell = sharded["nodes"][count]
                lines.append(
                    f"  sharded x{count:<2}"
                    f" cluster {cell['cluster_seconds'] * 1000:9.1f} ms"
                    f"  wall {cell['wall_seconds'] * 1000:9.1f} ms"
                    f"  shards {cell['shards_placed']:>4}"
                    f"  streamed {cell['bytes_streamed']:>10,} B"
                    f"  mapped {cell['bytes_mapped']:>10,} B"
                )
            speedup = sharded.get("speedup_max_nodes_vs_1")
            if speedup is not None:
                lines.append(
                    f"  sharded cluster critical path, max nodes vs 1:"
                    f" {speedup:.1f}x"
                )
            if sharded.get("identical_to_columnar") is False:
                lines.append(
                    "  WARNING: sharded results differ from columnar"
                )
    serving = document.get("concurrent_clients")
    if serving:
        from repro.serve.bench import render_serving_summary

        lines.append(render_serving_summary(serving))
    return "\n".join(lines)
