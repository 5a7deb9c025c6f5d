"""Per-layer probes: each layer's public functions, timed from outside.

Every probe runs over the workload's own inputs and programs and
returns ``{metric name: value}``.  A probe whose public function is
missing or raises reports :data:`FAILED` for its metrics and is listed
under ``probes_failed``; it never fails the run, so a later change may
delete an executor without touching the benchmark.
"""

from __future__ import annotations

import os
import shutil
import statistics
from time import perf_counter

from tracing import OFF, layer_self_ms_per_op, span_ms
from workloads import SERVE_WORKERS, percentile, rows_of, run_staged

#: Value of a metric whose probe failed (no real metric is negative).
FAILED = -1.0

ANY = 1 << 62


def _ms(function, repeats: int = 1) -> float:
    """Median wall time of *function* in milliseconds."""
    samples = []
    for __ in range(repeats):
        started = perf_counter()
        function()
        samples.append((perf_counter() - started) * 1000.0)
    return statistics.median(samples)


class ProbeContext:
    """What the probes share: the workload's inputs and a scratch root."""

    def __init__(self, workload, tmp: str) -> None:
        self.sources = workload.sources
        self.programs = workload.programs
        self.engine = workload.engine
        self.tmp = tmp
        self.encode_dir = os.path.join(tmp, "probe-sources", "ENCODE")
        #: Unused re-read copies of ENCODE (the formats probe leaves three).
        self.fresh: list = []
        self._results = None

    def fresh_sources(self) -> dict:
        """Same-content sources no store, digest or plan has touched."""
        from repro.formats import read_dataset, write_dataset

        if self.fresh:
            encode = self.fresh.pop()
        else:
            if not os.path.isdir(self.encode_dir):
                write_dataset(self.sources["ENCODE"], self.encode_dir)
            encode = read_dataset(self.encode_dir, "ENCODE")
        return {"ANNOTATIONS": self.sources["ANNOTATIONS"], "ENCODE": encode}

    def results(self) -> dict:
        """Results of the workload's first program (probe material)."""
        if self._results is None:
            self._results = run_staged(
                OFF, self.programs[0]["text"], self.sources, "columnar"
            )
        return self._results


# -- formats --------------------------------------------------------------------


def probe_formats(ctx: ProbeContext) -> dict:
    from repro.formats import read_dataset, write_dataset

    encode = ctx.sources["ENCODE"]
    shutil.rmtree(ctx.encode_dir, ignore_errors=True)
    write_dataset(encode, ctx.encode_dir)
    reads = []
    for __ in range(3):
        started = perf_counter()
        ctx.fresh.append(read_dataset(ctx.encode_dir, "ENCODE"))
        reads.append((perf_counter() - started) * 1000.0)
    results = ctx.results()
    out_root = os.path.join(ctx.tmp, "probe-out")

    def write_results() -> None:
        shutil.rmtree(out_root, ignore_errors=True)
        for name, dataset in results.items():
            write_dataset(dataset, os.path.join(out_root, name))

    write_ms = _ms(write_results, repeats=3)
    read_ms = statistics.median(reads)
    return {
        "formats.read_ms": read_ms,
        "formats.read_us_per_region": read_ms * 1000.0 / encode.region_count(),
        "formats.write_ms": write_ms,
        "formats.write_us_per_row": write_ms * 1000.0 / max(1, rows_of(results)),
    }


# -- gmql.lang ------------------------------------------------------------------


def probe_lang(ctx: ProbeContext) -> dict:
    from repro.engine.dispatch import get_backend
    from repro.gmql.lang import Interpreter, compile_program, optimize, parse

    parse_ms, compile_ms, optimize_ms = [], [], []
    compiled = None
    for program in ctx.programs:
        text = program["text"]
        parse_ms.append(_ms(lambda: parse(text), repeats=3))
        compile_ms.append(_ms(
            lambda: compile_program(text, datasets=ctx.sources), repeats=3
        ))
        compiled = compile_program(text, datasets=ctx.sources)
        optimize_ms.append(_ms(lambda: optimize(compiled), repeats=3))
    # Planning the first program: once over sources nothing has touched
    # (pays the content digest, zone maps and shard summaries), then
    # steadily over the same ones.
    compiled = optimize(
        compile_program(ctx.programs[0]["text"], datasets=ctx.sources)
    )
    backend = get_backend(ctx.engine)
    try:
        interpreter = Interpreter(backend, ctx.fresh_sources())
        first = _ms(lambda: interpreter.plan(compiled))
        steady = _ms(lambda: interpreter.plan(compiled), repeats=5)
    finally:
        backend.close()
    return {
        "lang.parse_ms": statistics.median(parse_ms),
        "lang.compile_ms": statistics.median(compile_ms),
        "lang.optimize_ms": statistics.median(optimize_ms),
        "lang.plan_first_ms": first,
        "lang.plan_ms": steady,
    }


# -- store: blocks and persistence ----------------------------------------------


def _touch_all_blocks(store, dataset) -> None:
    for sample in dataset:
        store.blocks(sample)
    store.zone_map()


def _tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, __, files in os.walk(directory) for name in files
    )


def probe_store(ctx: ProbeContext) -> dict:
    from repro.store import (
        persist_store,
        reset_store_counters,
        store_counters,
    )
    from repro.store.persist import close_opened_segments

    root = os.path.join(ctx.tmp, "probe-store")
    shutil.rmtree(root, ignore_errors=True)
    built = ctx.fresh_sources()["ENCODE"]
    regions = built.region_count()
    digest_ms = _ms(lambda: built.store().digest())
    reset_store_counters()
    store = built.store()
    build_ms = _ms(lambda: _touch_all_blocks(store, built))
    blocks_built = store_counters()["blocks_built"]
    resident_mb = store.resident_bytes() / 1e6
    # A store with a root and nothing memoised: persisting it builds
    # every block (sort orders included) and writes the segments.
    rooted = built.store(root=root, sync=True)
    persist_ms = _ms(lambda: persist_store(rooted))
    disk_bytes = _tree_bytes(root)
    try:
        mapped = ctx.fresh_sources()["ENCODE"]
        reset_store_counters()
        mapped_store = mapped.store(root=root)
        open_ms = _ms(lambda: _touch_all_blocks(mapped_store, mapped))
        blocks_mapped = store_counters()["blocks_mapped"]
    finally:
        close_opened_segments()
    return {
        "store.digest_ms": digest_ms,
        "store.build_ms": build_ms,
        "store.build_us_per_region": build_ms * 1000.0 / regions,
        "store.persist_ms": persist_ms,
        "store.mmap_open_ms": open_ms,
        "store.blocks_built": blocks_built,
        "store.blocks_mapped": blocks_mapped,
        "store.resident_mb": resident_mb,
        "store.disk_bytes_per_region": disk_bytes / regions,
    }


# -- store: kernels -------------------------------------------------------------


def _operand_blocks(sources: dict) -> tuple:
    """The blocks the engine works on: the promoter sample of
    ANNOTATIONS and every sample of ENCODE, from the memoised stores."""
    annotations, encode = sources["ANNOTATIONS"], sources["ENCODE"]
    promoters = next(
        sample for sample in annotations
        if sample.meta.first("annType") == "promoter"
    )
    encode_store = encode.store()
    return (
        annotations.store().blocks(promoters),
        [encode_store.blocks(sample) for sample in encode],
        encode_store.bin_size,
    )


def kernel_call(kind: str, params: dict, reference, experiments: list,
                bin_size: int) -> int:
    """Run one kernel over the operand blocks the way the columnar
    engine does, minus everything that is not the kernel; returns the
    number of pairs (or rows) the kernel produced."""
    from repro.store import (
        count_overlaps_blocks,
        group_cover_rows,
        join_pairs,
        overlap_pairs,
    )

    produced = 0
    if kind == "cover":
        for __, lefts, ___, ____ in group_cover_rows(
            experiments, params["lo"], ANY, params["variant"],
            bin_size=bin_size,
        ):
            produced += int(lefts.size)
        return produced
    for blocks in experiments:
        if kind == "count":
            counts, __ = count_overlaps_blocks(reference, blocks)
            produced += int(counts.sum())
            continue
        for chrom, anchor in reference.chroms.items():
            block = blocks.block(chrom)
            if block is None:
                continue
            if kind == "overlap":
                rows, __ = overlap_pairs(
                    anchor.starts, anchor.stops,
                    block.sorted_starts, block.left_stops,
                )
            else:
                rows, __, ___ = join_pairs(
                    anchor.starts, anchor.stops, anchor.strands,
                    block.sorted_starts, block.left_stops,
                    block.sorted_stops if "md_k" in params else None,
                    **params,
                )
            produced += int(rows.size)
    return produced


def kernel_ms(ctx: ProbeContext, kind: str, params: dict) -> tuple:
    """``(median ms, produced)`` of one kernel over the resident blocks."""
    reference, experiments, bin_size = _operand_blocks(ctx.sources)
    # Once untimed: blocks derive their sort orders on first use.
    produced = kernel_call(kind, params, reference, experiments, bin_size)
    return _ms(
        lambda: kernel_call(kind, params, reference, experiments, bin_size),
        repeats=3,
    ), produced


def probe_kernels(ctx: ProbeContext) -> dict:
    join_ms, pairs = kernel_ms(ctx, "join", {"max_distance": 1000})
    return {
        "kernel.join_pairs_ms": join_ms,
        "kernel.pairs_out": pairs,
        "kernel.count_overlaps_ms": kernel_ms(ctx, "count", {})[0],
        "kernel.overlap_pairs_ms": kernel_ms(ctx, "overlap", {})[0],
        "kernel.cover_sweep_ms": kernel_ms(
            ctx, "cover", {"variant": "COVER", "lo": 2}
        )[0],
    }


# -- engine and digest (from the staged operations' spans) ----------------------


def probe_engine(ctx: ProbeContext, recorder, staged_programs: list) -> dict:
    """*staged_programs* names the program of every staged operation the
    recorder holds; each program's kernel is timed directly so the
    engine's time splits into kernel and everything else."""
    run_ms = span_ms(recorder.spans, "engine.run")
    digest_ms = span_ms(recorder.spans, "digest.results")
    rows = recorder.counts.get("engine.rows_out", 0)
    kernels = {
        program["name"]: kernel_ms(ctx, *program["kernel"])[0]
        for program in ctx.programs
    }
    kernel_total = sum(kernels[name] for name in staged_programs)
    run_total = sum(run_ms)
    return {
        "engine.run_ms": statistics.median(run_ms),
        "engine.rows_out": rows / len(run_ms),
        "engine.kernel_share": kernel_total / run_total,
        "engine.nonkernel_us_per_row":
            (run_total - kernel_total) * 1000.0 / max(1, rows),
        "digest.ms": statistics.median(digest_ms),
        "digest.us_per_row": sum(digest_ms) * 1000.0 / max(1, rows),
    }


# -- store.cache ----------------------------------------------------------------


def probe_cache(ctx: ProbeContext) -> dict:
    """A private two-level cache, smaller than what is put into it."""
    from repro.store import ResultCache

    directory = os.path.join(ctx.tmp, "probe-cache")
    shutil.rmtree(directory, ignore_errors=True)
    cache = ResultCache(capacity=4, directory=directory)
    value = next(iter(ctx.results().values()))
    keys = [f"probe-{index}" for index in range(8)]
    put_us, get_us, load_ms = [], [], []
    for key in keys:
        put_us.append(_ms(lambda: cache.put(key, value)) * 1000.0)
    for key in keys[4:]:  # still resident
        get_us.append(_ms(lambda: cache.get(key)) * 1000.0)
    for key in keys[:4]:  # evicted from memory, on disk
        load_ms.append(_ms(lambda: cache.get(key)))
    if cache.stats()["disk_hits"] != 4:
        raise RuntimeError("evicted entries did not come back from disk")
    return {
        "cache.put_us": statistics.median(put_us),
        "cache.get_us": statistics.median(get_us),
        "cache.disk_load_ms": statistics.median(load_ms),
    }


def process_cache_metrics() -> dict:
    """What the process-wide result cache saw during the traced loop."""
    from repro.store import result_cache

    stats = result_cache().stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "cache.hit_rate": stats["hits"] / lookups if lookups else 0.0,
        "cache.evictions": stats["evictions"],
    }


# -- executors ------------------------------------------------------------------


def probe_executors(ctx: ProbeContext) -> dict:
    """The other executors against ``columnar`` on the same physical
    work: ``Interpreter.run_physical`` of the first two programs, best
    of two, one backend instance per engine (so a pool starts once)."""
    from repro.engine.context import ExecutionContext
    from repro.engine.dispatch import get_backend
    from repro.gmql.lang import Interpreter, compile_program, optimize

    compiled = [
        optimize(compile_program(program["text"], datasets=ctx.sources))
        for program in ctx.programs[:2]
    ]
    seconds: dict = {}
    counters = {"shm.bytes_shared": 0, "shm.bytes_pickled": 0}
    for engine in ("columnar", "auto", "parallel", "sharded"):
        backend = get_backend(engine)
        total = 0.0
        try:
            for program in compiled:
                best = None
                for __ in range(2):
                    context = ExecutionContext(
                        workers=SERVE_WORKERS, result_cache=False
                    )
                    interpreter = Interpreter(
                        backend, ctx.sources, context=context
                    )
                    physical = interpreter.plan(program)
                    started = perf_counter()
                    interpreter.run_physical(physical)
                    elapsed = perf_counter() - started
                    best = elapsed if best is None else min(best, elapsed)
                    if engine == "parallel":
                        for name in counters:
                            counters[name] += context.metrics.counter(name)
                total += best
        finally:
            backend.close()
        seconds[engine] = total
    base = seconds["columnar"]
    return {
        "executor.auto_vs_columnar": seconds["auto"] / base,
        "executor.parallel_vs_columnar": seconds["parallel"] / base,
        "executor.sharded_vs_columnar": seconds["sharded"] / base,
        "executor.shm_bytes_shared": counters["shm.bytes_shared"],
        "executor.bytes_pickled": counters["shm.bytes_pickled"],
    }


def probe_merge(ctx: ProbeContext) -> dict:
    """``merge_partials`` over one result split into per-chromosome
    partials, the way the sharded executors hand them back."""
    from repro.federation.merge import merge_partials

    result = next(iter(ctx.results().values()))
    chroms = result.chromosomes()
    partials = [
        result.with_samples([
            sample.with_regions(
                [region for region in sample.regions if region.chrom == chrom]
            )
            for sample in result
        ])
        for chrom in chroms
    ]
    merged = merge_partials(partials, name=result.name)
    if merged.region_count() != result.region_count():
        raise RuntimeError("merged partials lost regions")
    return {
        "executor.merge_partials_ms": _ms(
            lambda: merge_partials(partials, name=result.name), repeats=3
        ),
    }


# -- serve ----------------------------------------------------------------------


def serve_request_metrics(ops: list, stats: dict) -> dict:
    """Serving metrics from answered requests (client latency plus the
    server's own ``timing``) and the server's ``/stats`` payload."""
    answered = [op for op in ops if op.detail is not None]
    queued = [op.detail["timing"]["queued_ms"] for op in answered]
    executed = [op.detail["timing"]["execute_ms"] for op in answered]
    overhead = [
        op.seconds * 1000.0 - op.detail["timing"]["queued_ms"]
        - op.detail["timing"]["execute_ms"]
        for op in answered
    ]
    state = stats["state"]
    compiles = state["compile_hits"] + state["compile_misses"]
    cache = stats["result_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.queued_p50_ms": percentile(queued, 0.5),
        "serve.queued_p90_ms": percentile(queued, 0.9),
        "serve.execute_p50_ms": percentile(executed, 0.5),
        "serve.overhead_p50_ms": percentile(overhead, 0.5),
        "serve.compile_hit_rate":
            state["compile_hits"] / compiles if compiles else 0.0,
        "serve.result_cache_hit_rate":
            cache["hits"] / lookups if lookups else 0.0,
        "serve.coalesced": stats["scheduler"]["coalesced"],
        "serve.rejected": sum(
            sum(tenant["rejected"].values())
            for tenant in stats["admission"]["tenants"].values()
        ),
    }


def healthz_ms(port: int) -> float:
    from repro.serve import ServeClient

    client = ServeClient(port=port)
    try:
        client.healthz()
        return _ms(client.healthz, repeats=20)
    finally:
        client.close()


def probe_serve(ctx: ProbeContext) -> dict:
    """For the workloads that are not served: a short session against an
    in-thread server over the same sources, each program three times
    (one miss, two result-cache hits) from one client."""
    from repro.serve import (
        AdmissionController,
        QueryServer,
        ServeClient,
        ServerThread,
        TenantQuota,
        WarmState,
    )
    from repro.store import reset_result_cache
    from workloads import Op

    reset_result_cache()
    state = WarmState(ctx.sources, engine=ctx.engine, workers=SERVE_WORKERS)
    server = QueryServer(
        state,
        admission=AdmissionController(default_quota=TenantQuota(
            max_deadline_seconds=None
        )),
        max_concurrency=2,
    )
    thread = ServerThread(server).start()
    ops = []
    try:
        client = ServeClient(port=thread.port)
        try:
            for __ in range(3):
                for program in ctx.programs[:4]:
                    started = perf_counter()
                    response = client.query(program["text"])
                    if not response.ok:
                        raise RuntimeError(f"query failed: {response.payload}")
                    ops.append(Op(
                        program["name"], perf_counter() - started,
                        response.payload["digest"], detail=response.payload,
                    ))
            stats = client.stats().payload
        finally:
            client.close()
        metrics = serve_request_metrics(ops, stats)
        metrics["serve.http_roundtrip_ms"] = healthz_ms(thread.port)
        return metrics
    finally:
        thread.stop()
        reset_result_cache()


def probe_admission(ctx: ProbeContext) -> dict:
    from repro.serve import AdmissionController

    controller = AdmissionController()

    def cycle() -> None:
        for __ in range(1000):
            controller.release(controller.admit("probe"))

    return {"serve.admit_us": _ms(cycle, repeats=3)}  # ms per 1000 = us each


# -- the traced loop's own numbers ----------------------------------------------

LAYERS = ("formats", "lang", "store", "engine", "digest", "serve")


def op_layer_metrics(recorder, op_ids: list) -> dict:
    """Median self time per layer over the traced operations, and the
    share of an operation that named layer spans account for."""
    per_op = layer_self_ms_per_op(recorder.spans)
    picked = [per_op[op_id] for op_id in op_ids if op_id in per_op]
    metrics = {
        f"op.{layer}_ms": statistics.median(
            [layers.get(layer, 0.0) for layers in picked]
        )
        for layer in LAYERS
    }
    total = sum(sum(layers.values()) for layers in picked)
    unattributed = sum(layers.get("op", 0.0) for layers in picked)
    metrics["trace.attributed_frac"] = 1.0 - unattributed / total
    return metrics
