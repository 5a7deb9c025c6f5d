"""Command-line interface: run GMQL over on-disk datasets.

The CLI is the thin end of the paper's "simple interfaces" vision: GMQL
programs are short texts, datasets are directories in the GMQL repository
layout (see :mod:`repro.formats.meta`), and results come back as the same
kind of directory.

Subcommands::

    python -m repro run QUERY.gmql --source ENCODE=./encode_dir \
        --engine auto --out ./results [--stats] [--trace] [--workers N] \
        [--chaos SPEC]
    python -m repro check QUERY.gmql [--source NAME=DIR] [--strict] \
        [--effects] [--format json|sarif]
    python -m repro explain QUERY.gmql
    python -m repro explain QUERY.gmql --analyze --source ENCODE=./encode_dir
    python -m repro serve --source ENCODE=./encode_dir --port 8765 \
        --engine auto [--max-concurrency N] [--tenant-quota NAME=SPEC]
    python -m repro info DATASET_DIR
    python -m repro convert input.narrowPeak output.bed
    python -m repro formats

Exit codes distinguish failure families (documented in ``repro --help``):
0 success, 1 execution error, 2 GMQL syntax error, 3 GMQL semantic
error (``repro check`` findings, compile-time rejection).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import GmqlCompileError, GmqlSyntaxError, ReproError

#: Process exit codes; each failure family gets its own so scripts and
#: CI gates can tell a bad query from a bad run.
EXIT_EXECUTION = 1
EXIT_SYNTAX = 2
EXIT_SEMANTIC = 3

_EXIT_CODE_HELP = """\
exit codes:
  0   success
  1   execution error (I/O, engine, federation)
  2   GMQL syntax error
  3   GMQL semantic error (compile-time rejection, `check` findings)
"""


def _parse_source(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"sources are NAME=DIRECTORY, got {text!r}"
        )
    name, __, directory = text.partition("=")
    return (name, directory)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for shtab-style tooling/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GDM/GMQL genomic data management "
                    "(EDBT 2016 reproduction)",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="execute a GMQL program")
    run_cmd.add_argument("program", help="path to the GMQL text, or '-' for stdin")
    run_cmd.add_argument(
        "--source", action="append", default=[], type=_parse_source,
        metavar="NAME=DIR", help="bind a source dataset directory",
    )
    run_cmd.add_argument("--engine", default="naive",
                         help="execution backend "
                              "(naive/columnar/parallel/sharded/auto)")
    run_cmd.add_argument("--out", default=None,
                         help="directory to materialise results into")
    run_cmd.add_argument("--no-optimize", action="store_true",
                         help="skip the logical optimizer")
    run_cmd.add_argument("--stats", action="store_true",
                         help="print per-operator engine statistics")
    run_cmd.add_argument("--trace", action="store_true",
                         help="print the execution span trace")
    run_cmd.add_argument("--workers", type=_positive_int, default=None,
                         metavar="N",
                         help="worker processes for parallel kernels "
                              "(default: CPU-based)")
    run_cmd.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="arm deterministic fault injection for this run, e.g. "
             "'seed=7;transient@repository.load:*?times=1' "
             "(see docs/RESILIENCE.md for the spec language)",
    )
    run_cmd.add_argument(
        "--federate", type=_positive_int, default=None, metavar="N",
        help="execute over a local cluster of N worker node processes: "
             "sources are sharded by chromosome group across the nodes, "
             "each node runs the columnar kernels over its shards, and "
             "the partial results are streamed back and merged "
             "byte-identically to a single-node run",
    )
    run_cmd.add_argument(
        "--shards", type=_positive_int, default=None, metavar="K",
        help="with --federate: cap the plan at K chromosome shard "
             "groups (default: one group per chromosome)",
    )
    run_cmd.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent columnar store root: blocks are served from "
             "memory-mapped segments when present and persisted "
             "(synchronously) after a build otherwise; results are "
             "cached on disk beside it (default: in memory only)",
    )

    check_cmd = commands.add_parser(
        "check",
        help="statically analyze a GMQL program: schema/type inference "
             "plus lint rules; exits 3 on findings, without executing",
    )
    check_cmd.add_argument(
        "program", nargs="?", default=None,
        help="path to the GMQL text, or '-' for stdin",
    )
    check_cmd.add_argument(
        "--source", action="append", default=[], type=_parse_source,
        metavar="NAME=DIR",
        help="bind a source dataset directory; sharpens the analysis "
             "from open-world to exact schemas",
    )
    check_cmd.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors (nonzero exit on any finding)",
    )
    check_cmd.add_argument(
        "--effects", action="store_true",
        help="also emit the GQL120-124 effect diagnostics: shardability, "
             "merge exactness, cache safety, cardinality bounds",
    )
    check_cmd.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
        help="diagnostic output format (default: text with caret frames; "
             "sarif emits a SARIF 2.1.0 document for code-scanning upload)",
    )
    check_cmd.add_argument(
        "--rules", action="store_true",
        help="list the rule catalogue (codes and descriptions) and exit",
    )

    explain_cmd = commands.add_parser(
        "explain",
        help="show the (optimized) plan of a program; with --analyze, "
             "execute it and annotate the physical plan with actuals",
    )
    explain_cmd.add_argument("program")
    explain_cmd.add_argument("--no-optimize", action="store_true")
    explain_cmd.add_argument(
        "--analyze", action="store_true",
        help="execute the program and print the physical plan with "
             "chosen backend, estimated vs actual rows and per-node time",
    )
    explain_cmd.add_argument(
        "--source", action="append", default=[], type=_parse_source,
        metavar="NAME=DIR",
        help="bind a source dataset directory (required with --analyze)",
    )
    explain_cmd.add_argument("--engine", default="auto",
                             help="backend for --analyze "
                                  "(naive/columnar/parallel/auto)")
    explain_cmd.add_argument("--workers", type=_positive_int, default=None,
                             metavar="N",
                             help="worker processes for parallel kernels")
    explain_cmd.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent columnar store root for --analyze runs "
             "(default: in memory only)",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="start a resident HTTP/JSON query server over warm state: "
             "datasets, store blocks, compiled plans and worker pools "
             "load once and serve concurrent queries (see docs/SERVING.md)",
    )
    serve_cmd.add_argument(
        "--source", action="append", default=[], type=_parse_source,
        metavar="NAME=DIR", required=True,
        help="bind a source dataset directory (repeatable)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="listen address (default: 127.0.0.1)")
    serve_cmd.add_argument(
        "--port", type=int, default=8765,
        help="listen port; 0 binds an ephemeral port, printed on startup "
             "(default: 8765)",
    )
    serve_cmd.add_argument("--engine", default="auto",
                           help="backend each scheduler slot runs "
                                "(naive/columnar/parallel/auto)")
    serve_cmd.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="worker processes in the shared pool (default: CPU-based)",
    )
    serve_cmd.add_argument(
        "--max-concurrency", type=_positive_int, default=4, metavar="N",
        help="queries executing at once (backend slots; default: 4)",
    )
    serve_cmd.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent columnar store root: blocks and disk-level "
             "result-cache entries survive server restarts "
             "(default: in memory only)",
    )
    serve_cmd.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the process-wide plan-fingerprint result cache",
    )
    serve_cmd.add_argument(
        "--default-quota", default=None, metavar="SPEC",
        help="quota for tenants without their own, e.g. "
             "'concurrent=4,rate=120,window=60,deadline=30'",
    )
    serve_cmd.add_argument(
        "--tenant-quota", action="append", default=[], metavar="NAME=SPEC",
        help="per-tenant quota override (repeatable), e.g. "
             "'smith-lab=concurrent=8,deadline=120'",
    )

    info_cmd = commands.add_parser("info", help="summarise a dataset directory")
    info_cmd.add_argument("directory")

    convert_cmd = commands.add_parser(
        "convert", help="convert a region file between registered formats"
    )
    convert_cmd.add_argument("source")
    convert_cmd.add_argument("destination")

    commands.add_parser("formats", help="list registered file formats")
    return parser


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _load_sources(pairs: list, injector=None) -> dict:
    from repro.formats import read_dataset

    sources = {}
    for name, directory in pairs:
        if injector is not None:
            from repro.resilience import (
                RetryPolicy,
                SimulatedClock,
                call_with_retry,
            )
            import random

            def load(name=name, directory=directory):
                injector.fire(f"repository.load:{name}")
                return read_dataset(directory, name)

            sources[name] = call_with_retry(
                load, RetryPolicy(), clock=SimulatedClock(),
                rng=random.Random(injector.seed),
            )
        else:
            sources[name] = read_dataset(directory, name)
    return sources


def _command_run(args) -> int:
    injector = None
    if args.chaos:
        from repro.resilience import FaultInjector, arm

        injector = arm(FaultInjector.from_spec(args.chaos))
    try:
        return _run_with_chaos(args, injector)
    finally:
        if injector is not None:
            from repro.resilience import disarm

            disarm()


def _run_with_chaos(args, injector) -> int:
    from repro.engine.context import ExecutionContext
    from repro.engine.dispatch import get_backend
    from repro.formats import write_dataset
    from repro.gmql.lang import Interpreter, compile_program, optimize
    from repro.store.columnar import store_counters
    from repro.store.persist import set_store_root

    # Block accounting is a delta of the process-wide counters, which
    # also see the stores of derived datasets; no reset, so a process
    # embedding the CLI keeps its own totals.
    counters_before = store_counters()
    if args.store_dir:
        # Synchronous persistence: a CLI process is short-lived, so a
        # background persist thread could die mid-write (the atomic
        # rename makes that harmless, but the work would be wasted).
        set_store_root(args.store_dir, sync=True)
    program = _read_program(args.program)
    sources = _load_sources(args.source, injector)
    # Compiling against the sources runs the semantic analyzer with
    # exact schemas: invalid programs are rejected (exit 3) before any
    # operator executes.
    compiled = compile_program(program, datasets=sources)
    if args.federate:
        try:
            return _run_sharded_cluster(args, program, sources, injector)
        finally:
            if args.store_dir:
                set_store_root(None)
    if not args.no_optimize:
        compiled = optimize(compiled)
    backend = get_backend(args.engine)
    context = ExecutionContext(workers=args.workers, result_cache=True)
    # Each `repro run` starts cold in memory: the cache still
    # deduplicates repeated subplans within this program, but one
    # invocation never inherits (or pollutes) the process-wide cache of
    # an embedding process.  With --store-dir, the disk level persists
    # across invocations -- that survival is the point.
    from repro.store.cache import reset_result_cache

    reset_result_cache()
    interpreter = Interpreter(backend, sources, context=context)
    try:
        physical = interpreter.plan(compiled)
        results = interpreter.run_physical(physical)
    finally:
        # Release worker pools deterministically (not via __del__).
        backend.close()
        if args.store_dir:
            set_store_root(None)
    for name, dataset in results.items():
        summary = dataset.summary()
        print(
            f"{name}: {summary['samples']} sample(s), "
            f"{summary['regions']} region(s), schema {summary['schema']}"
        )
        if args.out:
            directory = os.path.join(args.out, name)
            write_dataset(dataset, directory)
            print(f"  materialised to {directory}")
    if args.stats:
        print()
        print("engine statistics:")
        calls, seconds, by_backend = _kernel_profile(physical)
        for operator in sorted(seconds):
            print(f"  {operator:<12} {calls[operator]:>3} call(s)  "
                  f"{seconds[operator] * 1000:8.1f} ms")
        print(f"  total kernel time: {sum(seconds.values()) * 1000:.1f} ms")
        if len(by_backend) > 1:
            print("  time by backend:")
            for name in sorted(by_backend):
                print(f"    {name:<10} {by_backend[name] * 1000:8.1f} ms")
        moved = {
            key: value - counters_before[key]
            for key, value in store_counters().items()
        }
        # Region objects built from outputs born as columns (writing a
        # result materialises it; the digest and summaries do not).
        print(f"  rows materialised: {moved['rows_materialised']}")
        if args.store_dir:
            resident = sum(
                dataset.store_stats()["resident_bytes"]
                for dataset in sources.values()
            )
            print(
                f"  persistent store: {moved['blocks_mapped']} block "
                f"set(s) mapped, {moved['blocks_built']} built, "
                f"{moved['blocks_evicted']} evicted, "
                f"{resident:,} resident bytes"
            )
    if args.trace:
        print()
        print("execution trace:")
        print(context.tracer.render())
    if injector is not None:
        print(f"chaos: {injector.summary()}")
    return 0


def _kernel_profile(physical) -> tuple:
    """``(calls, seconds, by_backend)`` over the plan nodes that ran a
    kernel, read from their spans: calls and self time (the span minus
    its nested operand spans) per operator, self time per backend."""
    calls: dict = {}
    seconds: dict = {}
    by_backend: dict = {}
    for node in physical.walk():
        span = node.span
        if span is None or span.attributes["backend"] in (
            "source", "empty", "cache"
        ):
            continue
        operator = node.kind.upper()
        own = span.self_seconds()
        calls[operator] = calls.get(operator, 0) + 1
        seconds[operator] = seconds.get(operator, 0.0) + own
        backend = span.attributes["backend"]
        by_backend[backend] = by_backend.get(backend, 0.0) + own
    return calls, seconds, by_backend


def _run_sharded_cluster(args, program, sources, injector) -> int:
    """``repro run --federate N``: sharded execution over worker nodes."""
    from repro.engine.context import ExecutionContext
    from repro.federation import LocalCluster
    from repro.formats import write_dataset

    context = ExecutionContext(workers=args.workers)
    with LocalCluster(
        sources,
        nodes=args.federate,
        store_root=args.store_dir,
        context=context,
    ) as cluster:
        outcome = cluster.run(program, max_shards=args.shards)
    print(outcome.report())
    for name in sorted(outcome.datasets or {}):
        dataset = outcome.datasets[name]
        summary = dataset.summary()
        print(
            f"{name}: {summary['samples']} sample(s), "
            f"{summary['regions']} region(s), schema {summary['schema']}"
        )
        if args.out:
            directory = os.path.join(args.out, name)
            write_dataset(dataset, directory)
            print(f"  materialised to {directory}")
    if args.stats:
        print()
        print("cluster statistics:")
        counters = context.metrics
        print(
            f"  shards: placed={counters.counter('federation.shards_placed')} "
            f"skipped={counters.counter('federation.shards_skipped')}"
        )
        print(
            f"  bytes: streamed={counters.counter('federation.bytes_streamed')} "
            f"mapped={counters.counter('federation.bytes_mapped')}"
        )
        for node in sorted(outcome.node_seconds):
            print(f"  {node:<12} {outcome.node_seconds[node] * 1000:8.1f} ms")
        print(f"  merge: {outcome.merge_seconds * 1000:.1f} ms")
        print(f"  cluster critical path: "
              f"{outcome.cluster_seconds() * 1000:.1f} ms")
    if injector is not None:
        if injector.injected:
            print(f"chaos: {injector.summary()}")
        else:
            # Worker node processes inherit the armed injector at fork
            # and fire faults in their own address space; the client's
            # record stays empty even when faults landed remotely, so
            # an empty summary here must not read as "nothing fired".
            print(
                "chaos: armed (faults inject inside worker node "
                "processes; see the outcome line for their effect)"
            )
    return 0


def _command_explain(args) -> int:
    from repro.gmql.lang import compile_program, optimize

    program = _read_program(args.program)
    if args.analyze:
        from repro.engine.context import ExecutionContext
        from repro.gmql.lang import explain_analyze
        from repro.store.persist import set_store_root

        if args.store_dir:
            set_store_root(args.store_dir, sync=True)
        sources = _load_sources(args.source)
        context = ExecutionContext(workers=args.workers, result_cache=True)
        # Cold cache per invocation, mirroring `repro run`: the counters
        # below then describe this program alone.
        from repro.store.cache import reset_result_cache

        reset_result_cache()
        try:
            __, physical, context = explain_analyze(
                program,
                sources,
                engine=args.engine,
                optimized=not args.no_optimize,
                context=context,
            )
        finally:
            if args.store_dir:
                set_store_root(None)
        print(physical.explain(analyze=True))
        print(
            "store: partitions_pruned="
            f"{context.metrics.counter('store.partitions_pruned')}"
        )
        print(
            "result cache: "
            f"hits={context.metrics.counter('result_cache.hits')} "
            f"misses={context.metrics.counter('result_cache.misses')}"
        )
        shards_placed = context.metrics.counter("federation.shards_placed")
        shards_skipped = context.metrics.counter("federation.shards_skipped")
        bytes_streamed = context.metrics.counter("federation.bytes_streamed")
        if shards_placed or shards_skipped or bytes_streamed:
            print(
                f"federation: shards_placed={shards_placed} "
                f"shards_skipped={shards_skipped} "
                f"bytes_streamed={bytes_streamed}"
            )
        # The total line stays last: scripts tail it.
        print(f"total: {context.tracer.total_seconds() * 1000:.2f} ms")
        return 0
    sources = _load_sources(args.source)
    compiled = compile_program(program, datasets=sources or None)
    if not args.no_optimize:
        compiled = optimize(compiled)
    # Effect lines (`!! local exact-int cacheable ...`) ride along on
    # every explained node; source summaries sharpen the bounds.
    from repro.gmql.lang.effects import annotate_effects

    summaries = {name: ds.summary() for name, ds in sources.items()}
    annotate_effects(compiled, summaries=summaries or None)
    print(compiled.explain())
    return 0


def _sarif_document(artifact: str, analysis) -> dict:
    """Minimal SARIF 2.1.0 document over one program's ``Analysis``,
    shaped for GitHub code-scanning upload."""
    from repro.gmql.lang.semantics import RULES

    results = []
    seen_rules: dict = {}
    uri = "stdin" if artifact == "-" else artifact
    for diag in analysis.diagnostics:
        seen_rules[diag.code] = RULES.get(diag.code, "")
        location = {
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
            }
        }
        if diag.span is not None:
            location["physicalLocation"]["region"] = {
                "startLine": diag.span.line,
                "startColumn": diag.span.column,
            }
        results.append(
            {
                "ruleId": diag.code,
                "level": "error" if diag.severity == "error" else "warning",
                "message": {"text": diag.message},
                "locations": [location],
            }
        )
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {
                                    "text": seen_rules[code]
                                },
                            }
                            for code in sorted(seen_rules)
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def _command_check(args) -> int:
    import json

    from repro.gmql.lang.semantics import RULES, analyze_program

    if args.rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    if args.program is None:
        print("error: a program path is required (or --rules)",
              file=sys.stderr)
        return EXIT_EXECUTION
    program = _read_program(args.program)
    sources = _load_sources(args.source)
    try:
        analysis = analyze_program(
            program, datasets=sources or None, effects=args.effects
        )
    except GmqlSyntaxError as exc:
        if args.format == "json":
            print(json.dumps(
                {"ok": False, "syntax_error": str(exc)}, indent=2
            ))
        else:
            print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    errors = analysis.errors()
    warnings = analysis.warnings()
    failed = bool(errors) or (args.strict and bool(warnings))
    if args.format == "json":
        print(json.dumps(
            {
                "ok": not failed,
                "errors": len(errors),
                "warnings": len(warnings),
                "diagnostics": [d.to_dict() for d in analysis.diagnostics],
            },
            indent=2,
        ))
    elif args.format == "sarif":
        print(json.dumps(_sarif_document(args.program, analysis), indent=2))
    elif analysis.diagnostics:
        print(analysis.render())
        print(f"{len(errors)} error(s), {len(warnings)} warning(s)")
    else:
        print("ok: no findings")
    return EXIT_SEMANTIC if failed else 0


def _command_serve(args) -> int:
    """``repro serve``: run the resident query server until interrupted."""
    import asyncio
    import signal

    from repro.serve.admission import AdmissionController, TenantQuota
    from repro.serve.server import QueryServer
    from repro.serve.state import WarmState
    from repro.store.persist import set_store_root

    default_quota = (
        TenantQuota.parse(args.default_quota) if args.default_quota else None
    )
    quotas = {}
    for entry in args.tenant_quota:
        name, sep, spec = entry.partition("=")
        if not sep:
            print(f"error: --tenant-quota takes NAME=SPEC, got {entry!r}",
                  file=sys.stderr)
            return EXIT_EXECUTION
        quotas[name.strip()] = TenantQuota.parse(spec)
    if args.store_dir:
        # Async persistence would also work for a long-lived server, but
        # synchronous keeps restart-warm guarantees simple: once a block
        # was served, its segment is on disk.
        set_store_root(args.store_dir, sync=True)
    try:
        sources = _load_sources(args.source)
        state = WarmState(
            sources,
            engine=args.engine,
            workers=args.workers,
            store_dir=args.store_dir,
            result_cache_enabled=not args.no_result_cache,
        )
        server = QueryServer(
            state,
            admission=AdmissionController(
                default_quota=default_quota, quotas=quotas
            ),
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
        )

        async def main() -> None:
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            await server.start()
            print(
                f"serving {len(sources)} dataset(s) on "
                f"http://{args.host}:{server.port} "
                f"(engine {args.engine}, warm in "
                f"{state.warm_seconds:.2f}s)",
                flush=True,
            )
            await stop.wait()
            print("shutting down...", flush=True)
            await server.stop()

        asyncio.run(main())
    finally:
        if args.store_dir:
            set_store_root(None)
    return 0


def _command_info(args) -> int:
    from repro.formats import read_dataset
    from repro.gdm import render_tables

    dataset = read_dataset(args.directory)
    summary = dataset.summary()
    print(f"dataset:        {summary['name']}")
    print(f"samples:        {summary['samples']}")
    print(f"regions:        {summary['regions']}")
    print(f"metadata pairs: {summary['metadata_pairs']}")
    print(f"schema:         {summary['schema']}")
    print(f"chromosomes:    {list(dataset.chromosomes())}")
    print(f"est. size:      {summary['size_bytes']:,} bytes")
    print()
    print(render_tables(dataset, max_rows=10))
    return 0


def _command_convert(args) -> int:
    from repro.formats import format_for_path

    source_format = format_for_path(args.source)
    destination_format = format_for_path(args.destination)
    with open(args.source) as handle:
        regions = source_format.parse(handle)
    # Remap values through the destination schema by attribute name.
    src_schema = source_format.schema()
    dst_schema = destination_format.schema()
    converted = []
    for region in regions:
        values = []
        for definition in dst_schema:
            if definition.name in src_schema:
                values.append(
                    region.values[src_schema.index_of(definition.name)]
                )
            else:
                values.append(None)
        converted.append(region.with_values(tuple(values)))
    with open(args.destination, "w") as handle:
        handle.write(destination_format.serialize(converted))
    print(f"converted {len(converted)} region(s): "
          f"{source_format.name} -> {destination_format.name}")
    return 0


def _command_formats(args) -> int:
    from repro.formats import available_formats, format_named

    for name in available_formats():
        fmt = format_named(name)
        extensions = ", ".join(fmt.extensions) or "-"
        print(f"{name:<12} {extensions}")
    return 0


_HANDLERS = {
    "run": _command_run,
    "check": _command_check,
    "explain": _command_explain,
    "serve": _command_serve,
    "info": _command_info,
    "convert": _command_convert,
    "formats": _command_formats,
}


def main(argv: list | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GmqlSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except GmqlCompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXECUTION
    except BrokenPipeError:
        # Output truncated by a downstream pager/head: not an error.
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXECUTION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
