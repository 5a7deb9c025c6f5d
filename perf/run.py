#!/usr/bin/env python3
"""The layered GMQL benchmark: one workload per invocation.

    python3 perf/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                        [--quick]

Prints every metric by name with its unit, then -- as the last line of
standard output -- one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Without ``--trace`` the metrics are the end-to-end ones
(measured with tracing off); with ``--trace 1`` they are the per-layer
ones, from a traced run plus direct probes of each layer.  Exits
non-zero on any correctness failure or leaked process.

The workload runs in a child process in a session of its own; this
process waits for it, kills whatever is left of the session, and checks
that nothing survived.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
GOLDEN_PATH = os.path.join(PERF_DIR, "golden.json")

#: The child must finish well inside the contract's 180 s per run.
CHILD_TIMEOUT_SECONDS = 170.0
#: How long helper processes may take to end after the child has.
EXIT_GRACE_SECONDS = 3.0
#: Set-up and warm-up are repeated on fresh inputs and their medians
#: reported: at least MIN times, then on until MAX times or until the
#: repeats have used their share of the run's time.
SETUP_REPEATS_MIN = 3
SETUP_REPEATS_MAX = 5
SETUP_BUDGET_SECONDS = 6.0
QUICK_FACTOR = 0.1
QUICK_OPS = 10
#: Scale of the oracle copy relative to the run's inputs.
ORACLE_FACTOR = 0.05
GOLDEN_SEED = 42
#: Share of ``--seconds`` the traced run spends in its loop (the layer
#: probes take the rest of the run's time budget).
TRACE_LOOP_SHARE = 0.45


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[workload["name"] for workload in bench["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"]),
        help="how long the timed loop measures",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run and layer probes, per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"1/{round(1 / QUICK_FACTOR)} data, {QUICK_OPS} operations, "
             "one set-up (smoke test; not comparable with full runs)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this run's result digests in golden.json (seed 42)",
    )
    parser.add_argument("--child", metavar="RESULT_PATH", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the measuring child ----------------------------------------------------------


def _golden_key(args) -> str:
    return "quick" if args.quick else "full"


def check_golden(args, workload) -> tuple:
    """``(checked, mismatched program names)`` against ``golden.json``."""
    if args.seed != GOLDEN_SEED:
        return 0, []
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    if args.write_golden:
        golden.setdefault(_golden_key(args), {})[workload.name] = dict(
            sorted(workload.golden.items())
        )
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
    pinned = golden.get(_golden_key(args), {}).get(workload.name, {})
    wrong = [
        name for name, digest in sorted(workload.golden.items())
        if pinned.get(name) != digest
    ]
    return len(workload.golden), wrong


def check_oracle(args, factor: float) -> tuple:
    """Every program on a 1/20-scale copy of the inputs, through the
    ``naive`` reference and the workload's engine: digests must agree."""
    from workloads import WORKLOADS, make_sources, run_query, unique_program

    spec = WORKLOADS[args.workload]
    sources = make_sources(args.seed, spec["scale"], factor * ORACLE_FACTOR)
    programs = list(spec["programs"])
    if args.workload == "serve_mix":
        programs += [unique_program(0), unique_program(1)]
    wrong = [
        program["name"] for program in programs
        if run_query(program["text"], sources, "naive")
        != run_query(program["text"], sources, spec["engine"])
    ]
    return len(programs), wrong


def prepare(workload, repeat: bool) -> tuple:
    """Set up and warm up on fresh inputs, repeatedly if *repeat*; the
    last set-up stays for the timed loop.  Returns the two sample lists."""
    setup_s, warmup_s = [], []
    begun = time.perf_counter()
    while True:
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        workload.warmup()
        warmup_s.append(time.perf_counter() - started)
        spent = time.perf_counter() - begun
        if not repeat or len(setup_s) >= SETUP_REPEATS_MAX or (
            len(setup_s) >= SETUP_REPEATS_MIN and spent >= SETUP_BUDGET_SECONDS
        ):
            break
    workload.collect_golden()
    return setup_s, warmup_s


def latency_summary(ops: list) -> tuple:
    from workloads import percentile

    latencies = [op.seconds * 1000.0 for op in ops if op.error is None]
    if not latencies:
        raise RuntimeError(f"no operation succeeded: {ops[0].error}")
    return percentile(latencies, 0.5), percentile(latencies, 0.9)


def measured_run(args, workload, report: list) -> tuple:
    """End-to-end metrics, tracing off."""
    import resource

    import calibrate
    from tracing import OFF

    factor = QUICK_FACTOR if args.quick else 1.0
    checks, wrong = check_oracle(args, factor)
    before = calibrate.burst()
    setup_s, warmup_s = prepare(workload, repeat=not args.quick)
    golden_checks, golden_wrong = check_golden(args, workload)
    between = calibrate.burst()
    gc.collect()
    ops, busy = workload.run_ops(
        OFF, args.seconds, QUICK_OPS if args.quick else None
    )
    after = calibrate.burst()
    failed = workload.failures(ops)
    p50, p90 = latency_summary(ops)
    # Times are scaled to the machine's speed around them (calibrate.py).
    setup_speed = calibrate.speed_factor(before + between)
    loop_speed = calibrate.speed_factor(workload.unit_ms or between + after)
    raw = {
        "setup_s": statistics.median(setup_s),
        "warmup_s": statistics.median(warmup_s),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "queries_per_s": (len(ops) - len(failed)) / busy,
    }
    metrics = {
        "setup_s": raw["setup_s"] * setup_speed,
        "warmup_s": raw["warmup_s"] * setup_speed,
        "query_p50_ms": p50 * loop_speed,
        "query_p90_ms": p90 * loop_speed,
        "queries_per_s": raw["queries_per_s"] / loop_speed,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.append(
        f"machine speed: set-up x{setup_speed:.4f}, loop x{loop_speed:.4f} of "
        f"nominal; as measured: " + "  ".join(
            f"{name}={value:.4f}" for name, value in raw.items()
        )
    )
    report.append(
        f"set-ups: {len(setup_s)}; timed operations: {len(ops)} "
        f"({workload.clients} client(s), closed loop, {busy:.2f} s); "
        f"{int(len(ops) * 0.1)} samples beyond p90"
    )
    report.append("per program, as measured:")
    by_program: dict = {}
    for op in ops:
        label = "unique_*" if op.program.startswith("unique_") else op.program
        by_program.setdefault(label, []).append(op.seconds * 1000.0)
    for name, samples in by_program.items():
        report.append(
            f"  {name:<24} n={len(samples):<4} "
            f"p50 {statistics.median(samples):9.2f} ms"
        )
    problems = (
        [f"oracle mismatch: {name}" for name in wrong]
        + [f"golden mismatch: {name}" for name in golden_wrong]
        + [f"failed op {op.program}: {op.error or 'wrong digest'}"
           for op in failed[:5]]
    )
    attempted = len(ops) + checks + golden_checks
    return metrics, attempted, len(failed) + len(wrong) + len(golden_wrong), \
        problems


def traced_run(args, workload, report: list) -> tuple:
    """Per-layer metrics: one loop of alternating traced and untraced
    operations, a staged pass over every program, then the probes."""
    import probes
    from tracing import OP, Recorder, write_chrome_trace

    prepare(workload, repeat=False)
    golden_checks, golden_wrong = check_golden(args, workload)
    recorder = Recorder(enabled=True)
    gc.collect()
    # Traced and untraced operations alternate (see workloads.paired).
    ops, __ = workload.run_ops(
        recorder, args.seconds * TRACE_LOOP_SHARE,
        2 * QUICK_OPS if args.quick else None,
    )
    traced_ops = [op for op in ops if op.traced]
    loop_ids = list(dict.fromkeys(
        span[OP] for span in recorder.spans if span[OP] is not None
    ))
    metrics = dict(probes.process_cache_metrics())
    failed = workload.failures(ops)
    # Each turn of the schedule ran once traced and once not, back to
    # back on the same program: the overhead is the median ratio.
    by_turn: dict = {}
    for op in ops:
        if op.error is None:
            by_turn.setdefault(op.turn, {})[op.traced] = op.seconds
    ratios = [pair[True] / pair[False] for pair in by_turn.values()
              if len(pair) == 2]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics.update(probes.op_layer_metrics(recorder, loop_ids))
    staged_recorder = Recorder(enabled=True)
    staged = workload.staged_pass(staged_recorder)

    context = probes.ProbeContext(workload, workload.tmp)
    probes_failed = []

    def run_probe(names: list, function, *extra) -> None:
        try:
            values = function(context, *extra)
            missing = set(names) - set(values)
            if missing:
                raise KeyError(f"probe did not report {sorted(missing)}")
            metrics.update(values)
        except Exception as exc:  # a missing layer never fails the run
            probes_failed.append(f"{function.__name__}: {exc!r}")
            metrics.update({name: probes.FAILED for name in names})

    declared = [m["name"] for m in load_benchmark()["per_layer"]]

    def named(prefix: str, *excluded: str) -> list:
        return [
            name for name in declared
            if name.startswith(prefix) and name not in excluded
        ]

    run_probe(named("engine.") + named("digest."), probes.probe_engine,
              staged_recorder, staged)
    run_probe(named("formats."), probes.probe_formats)
    run_probe(named("lang."), probes.probe_lang)
    run_probe(named("store."), probes.probe_store)
    run_probe(named("kernel."), probes.probe_kernels)
    run_probe(named("cache.", "cache.hit_rate", "cache.evictions"),
              probes.probe_cache)
    run_probe(named("executor.", "executor.merge_partials_ms"),
              probes.probe_executors)
    run_probe(["executor.merge_partials_ms"], probes.probe_merge)
    run_probe(["serve.admit_us"], probes.probe_admission)
    serve_names = named("serve.", "serve.admit_us")
    if hasattr(workload, "stats"):  # the served workload measures itself

        def served(ctx) -> dict:
            values = probes.serve_request_metrics(traced_ops, workload.stats())
            values["serve.http_roundtrip_ms"] = probes.healthz_ms(
                workload.thread.port
            )
            return values

        run_probe(serve_names, served)
    else:
        run_probe(serve_names, probes.probe_serve)

    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
    write_chrome_trace(trace_path, recorder, f"perf {args.workload}")
    report.append(
        f"traced operations: {len(traced_ops)} of {len(ops)}, alternating "
        f"with untraced ones ({len(ratios)} pairs); "
        f"{len(recorder.spans)} spans -> "
        f"{os.path.relpath(trace_path, ROOT)}"
    )
    report.append(f"probes_failed: {probes_failed or 'none'}")
    problems = (
        [f"golden mismatch: {name}" for name in golden_wrong]
        + [f"failed op {op.program}: {op.error or 'wrong digest'}"
           for op in failed[:5]]
    )
    attempted = len(ops) + golden_checks
    return metrics, attempted, len(failed) + len(golden_wrong), problems


def child_main(args) -> int:
    import multiprocessing
    import threading

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, PERF_DIR)
    try:
        import repro  # noqa: F401 -- the system under test
    except ImportError as exc:
        print(f"perf: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 3
    from workloads import make_workload

    bench = load_benchmark()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    tmp = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    workload = make_workload(
        args.workload, args.seed, QUICK_FACTOR if args.quick else 1.0, tmp
    )
    report: list = []
    try:
        run = traced_run if args.trace else measured_run
        metrics, attempted, failed, problems = run(args, workload, report)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    names = [metric["name"] for metric in declared]
    if set(names) != set(metrics):
        print(
            "perf: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}",
            file=sys.stderr,
        )
        return 4
    strays = [repr(child) for child in multiprocessing.active_children()] + [
        repr(thread) for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'quick  ' if args.quick else ''}trace {args.trace}")
    for metric in declared:
        print(f"  {metric['name']:<32} {metrics[metric['name']]:>14.4f} "
              f"{metric['unit']}")
    for line in report + problems + [f"left running: {s}" for s in strays]:
        print(line)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    sys.stdout.flush()
    with open(args.child, "w") as handle:
        json.dump({
            "leaked": len(strays),
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric["name"]: {
                        "value": metrics[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in declared
                },
            },
        }, handle)
    return 0


# -- the supervising parent -------------------------------------------------------


def session_members(session: int) -> list:
    """Live (non-zombie) processes of *session*, from ``/proc``."""
    members = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return members
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def wait_for_session_end(session: int, seconds: float) -> bool:
    """Poll until *session* has no live member; false on timeout."""
    deadline = time.monotonic() + seconds
    while session_members(session):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


def end_session(child) -> None:
    """Kill what is left of *child*'s session and wait until it is gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in session_members(child.pid):  # members that left the group
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    child.wait()
    if not wait_for_session_end(child.pid, 10.0):
        raise RuntimeError("perf: processes survived the kill")


def supervise(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"result-{os.getpid()}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child", result_path,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + ["--quick"] * args.quick + ["--write-golden"] * args.write_golden
    # A terminated parent must not leave the child's session behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(command, start_new_session=True)
    survivors: list = []
    try:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            code = None
        if code is not None:
            # Whatever still lives in the child's session is a leak --
            # after a moment's grace: multiprocessing's resource tracker
            # ends by itself, but only once the child's pipe has closed.
            wait_for_session_end(child.pid, EXIT_GRACE_SECONDS)
            survivors = session_members(child.pid)
    finally:
        end_session(child)
        shutil.rmtree(
            os.path.join(OUT_DIR, "tmp", f"{args.workload}-{child.pid}"),
            ignore_errors=True,
        )
    if code is None:
        print(f"perf: workload exceeded {CHILD_TIMEOUT_SECONDS:.0f} s",
              file=sys.stderr)
        return 6
    if code != 0 or not os.path.exists(result_path):
        print(f"perf: workload process exited with {code}", file=sys.stderr)
        return code or 7
    with open(result_path) as handle:
        outcome = json.load(handle)
    os.unlink(result_path)
    leaked = outcome["leaked"] + len(survivors)
    print(f"leaked_processes {leaked}")
    result = outcome["result"]
    result["correct"] = bool(result["correct"] and leaked == 0)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return supervise(args)


if __name__ == "__main__":
    sys.exit(main())
