"""The four workloads: inputs, programs, and what one operation is.

Everything here drives the system through its public entry points only
(see README.md); program texts and data scales are the benchmark's own.

An *operation* is one complete query as its user sees it, every result
row consumed:

* ``warm_join_emit`` / ``warm_scan_kernels`` -- ``execute(...)`` on the
  pinned engine over resident sources plus ``results_digest`` of the
  results, result cache off;
* ``cold_batch`` -- one in-process ``repro run`` (``repro.cli.main``)
  over on-disk sources into fresh output and store directories, with
  the process-wide state reset first;
* ``serve_mix`` -- one ``POST /query`` over a keep-alive connection to
  an in-thread server, two clients in a closed loop.

Each workload also has a *staged* form of its operation, built from the
same public pieces with a span around each: the traced run uses it to
say which layer the time went to.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import shutil
import threading
from time import perf_counter

from repro.engine.context import ExecutionContext
from repro.engine.dispatch import get_backend
from repro.gdm.digest import results_digest
from repro.gmql.lang import (
    Interpreter,
    compile_program,
    execute,
    optimize,
    parse,
)

import calibrate
from tracing import OFF

PROMS = "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
#: Selects every ENCODE sample (the generator tags them all ``BED``), so
#: the operator behind it works on a derived dataset whose store blocks
#: are rebuilt by every query, at the same input size for every seed.
DERIVED = "PEAKS = SELECT(format == 'BED') ENCODE;\n"


def _program(name: str, text: str, kernel: tuple) -> dict:
    """*kernel* says which store kernel does the program's work, so the
    kernel probe can call it directly over the same operand blocks."""
    return {"name": name, "text": text + "MATERIALIZE R;\n", "kernel": kernel}


def join_dle(distance: int, name: str | None = None) -> dict:
    return _program(
        name or f"join_dle{distance}",
        PROMS + f"R = JOIN(DLE({distance}); output: LEFT) PROMS ENCODE;\n",
        ("join", {"max_distance": distance}),
    )


def _scan_programs(operand: str, prefix: str, head: str) -> list:
    return [
        _program(prefix + "map_count",
                 PROMS + head + f"R = MAP(n AS COUNT) PROMS {operand};\n",
                 ("count", {})),
        _program(prefix + "map_avg",
                 PROMS + head
                 + f"R = MAP(avg_p AS AVG(p_value)) PROMS {operand};\n",
                 ("overlap", {})),
        _program(prefix + "join_md1",
                 PROMS + head
                 + f"R = JOIN(MD(1); output: LEFT) PROMS {operand};\n",
                 ("join", {"md_k": 1})),
        _program(prefix + "cover2",
                 head + f"R = COVER(2, ANY) {operand};\n",
                 ("cover", {"variant": "COVER", "lo": 2})),
    ]


MAP_COUNT, MAP_AVG, __, COVER2 = _scan_programs("ENCODE", "", "")

#: Data scales (generator parameters) and program sets.  Sizes are what
#: fits the benchmark contract's time cap with about 100 timed
#: operations of >= 100 ms per run; README.md has the probes behind them.
WORKLOADS = {
    "warm_join_emit": {
        "scale": {"n_genes": 6000, "n_enhancers": 500, "n_samples": 4,
                  "peaks_per_sample_mean": 6000},
        "engine": "columnar",
        "programs": [
            join_dle(1000),
            join_dle(2000),
            _program("histogram", "R = HISTOGRAM(1, ANY) ENCODE;\n",
                     ("cover", {"variant": "HISTOGRAM", "lo": 1})),
        ],
    },
    "warm_scan_kernels": {
        "scale": {"n_genes": 1000, "n_enhancers": 500, "n_samples": 6,
                  "peaks_per_sample_mean": 35000},
        "engine": "columnar",
        # Seven programs, not eight: with an even number of equally
        # frequent programs the median operation falls on the gap
        # between two programs' latencies and jumps from run to run.
        "programs": (
            _scan_programs("ENCODE", "", "")
            + _scan_programs("PEAKS", "derived_", DERIVED)[:3]
        ),
    },
    "cold_batch": {
        "scale": {"n_genes": 2000, "n_enhancers": 500, "n_samples": 4,
                  "peaks_per_sample_mean": 4000},
        "engine": "columnar",
        "programs": [MAP_COUNT, COVER2, join_dle(1000)],
    },
    "serve_mix": {
        "scale": {"n_genes": 1000, "n_enhancers": 500, "n_samples": 4,
                  "peaks_per_sample_mean": 3000},
        "engine": "auto",
        "programs": [MAP_COUNT, join_dle(1000), COVER2, MAP_AVG],
    },
}

#: ``serve_mix``: closed loop, one client per core of the 2-core box.
SERVE_CLIENTS = 2
SERVE_MAX_CONCURRENCY = 2
SERVE_WORKERS = 2
#: Of every seven requests of a client, which are unique programs; the
#: other four come from the hot set.  With an even split the median
#: request sits on the cliff between a cache hit and a miss and the
#: reported p50 jumps between the two; at 4:3 it is the costliest hot
#: program, with the same margin (7 % of all requests) on either side.
UNIQUE_CYCLE = 7
UNIQUE_TURNS = (1, 3, 5)
#: Requests per client between two meetings of the clients, and how
#: many reference units are timed at a meeting.
SERVE_ROUND = 20
SERVE_UNITS = 8
#: Unique programs re-checked in-process after the timed loop.
SERVE_VERIFY_SAMPLE = 8


def unique_program(index: int) -> dict:
    """A program no earlier request used: misses the compiled-program
    cache and the result cache, and adds an entry to both."""
    if index % 2 == 0:
        return join_dle(1000 + index, name=f"unique_{index}")
    threshold = 1e-4 * (1.0 + index * 1e-4)
    return _program(
        f"unique_{index}",
        PROMS
        + f"PEAKS = SELECT(region: p_value < {threshold:.8f}) ENCODE;\n"
        + "R = MAP(n AS COUNT) PROMS PEAKS;\n",
        ("count", {}),
    )


def make_sources(seed: int, scale: dict, factor: float = 1.0) -> dict:
    """Generate the source datasets from *seed* (same seed, same inputs).

    *factor* shrinks the region counts (quick mode, the oracle copy);
    the sample count stays, so programs keep their shape.
    """
    from repro.simulate import EncodeRepository, GenomeLayout

    def shrink(value: int) -> int:
        return max(20, int(round(value * factor)))

    layout = GenomeLayout.generate(
        seed=seed,
        n_genes=shrink(scale["n_genes"]),
        n_enhancers=shrink(scale["n_enhancers"]),
    )
    repo = EncodeRepository.generate(
        seed=seed,
        n_samples=scale["n_samples"],
        peaks_per_sample_mean=shrink(scale["peaks_per_sample_mean"]),
        layout=layout,
    )
    return {"ANNOTATIONS": repo.annotations, "ENCODE": repo.encode}


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def rows_of(results: dict) -> int:
    return sum(dataset.region_count() for dataset in results.values())


def run_query(text: str, sources: dict, engine: str) -> str:
    """The in-process operation: execute, then digest every result row."""
    results = execute(
        text, sources, engine=engine,
        context=ExecutionContext(result_cache=False),
    )
    return results_digest(results)


def run_staged(recorder, text: str, sources: dict, engine: str,
               result_cache: bool = False) -> dict:
    """What ``execute`` does, stage by stage with a span around each
    public call; returns the results."""
    with recorder.span("lang.parse"):
        parse(text)
    with recorder.span("lang.compile"):
        compiled = compile_program(text, datasets=sources)
    with recorder.span("lang.optimize"):
        compiled = optimize(compiled)
    with recorder.span("store.prepare"):
        # What the first plan over new sources asks of the store layer:
        # content digest and zone map (with a store root: build and
        # synchronous persist).  Done here it is the store's time, not
        # the planner's; over resident sources it is a memo lookup.
        for dataset in sources.values():
            store = dataset.store()
            store.digest()
            store.zone_map()
    backend = get_backend(engine)
    try:
        interpreter = Interpreter(
            backend, sources,
            context=ExecutionContext(result_cache=result_cache),
        )
        with recorder.span("lang.plan"):
            physical = interpreter.plan(compiled)
        with recorder.span("engine.run"):
            results = interpreter.run_physical(physical)
    finally:
        backend.close()
    recorder.count("engine.rows_out", rows_of(results))
    return results


def digest_staged(recorder, results: dict) -> str:
    with recorder.span("digest.results"):
        return results_digest(results)


class Op:
    """What one timed operation reports."""

    __slots__ = ("program", "seconds", "digest", "error", "detail",
                 "traced", "turn")

    def __init__(self, program: str, seconds: float, digest,
                 error: str | None = None, detail: dict | None = None,
                 traced: bool = False, turn=None):
        self.program = program
        self.seconds = seconds
        self.digest = digest
        self.error = error
        self.detail = detail
        self.traced = traced
        #: Position in the schedule; in a traced run two operations, one
        #: traced and one not, share it.
        self.turn = turn


def paired(recorder, index: int) -> tuple:
    """``(recorder for this operation, its turn in the schedule)``.

    In a traced run every turn of the schedule runs twice, once traced
    and once not (which of the two goes first alternates), so the
    tracing overhead is a difference between neighbours in time and not
    between two loops minutes apart.
    """
    if recorder.enabled:
        turn = index // 2
        return (recorder if (index + turn) % 2 else OFF), turn
    return recorder, index


def _loop_done(started: float, seconds: float, done: int,
               max_ops: int | None) -> bool:
    if max_ops is not None:
        return done >= max_ops
    return perf_counter() - started >= seconds


class InProcessWorkload:
    """``warm_join_emit`` and ``warm_scan_kernels``: one client, resident
    sources, engine pinned, result cache off."""

    clients = 1

    def __init__(self, name: str, seed: int, factor: float, tmp: str) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.factor = factor
        self.tmp = tmp
        self.engine = self.spec["engine"]
        self.programs = self.spec["programs"]
        self.sources: dict = {}
        #: ``{program: digest}`` every timed operation must reproduce.
        self.expected: dict = {}
        #: ``{program: results_digest}`` compared with ``golden.json``.
        self.golden: dict = {}
        #: Reference-unit times sampled between the timed operations.
        self.unit_ms: list = []

    def setup(self) -> None:
        # Drop the previous set-up's inputs first: two generations alive
        # at once would double the peak RSS the run reports.
        self.sources = {}
        gc.collect()
        self.sources = make_sources(self.seed, self.spec["scale"], self.factor)

    def warmup(self) -> None:
        """One pass over each distinct program: first-touch store builds,
        planner estimates, lazy imports."""
        self.expected = {
            program["name"]: run_query(
                program["text"], self.sources, self.engine
            )
            for program in self.programs
        }

    def collect_golden(self) -> None:
        """Untimed: the row digests ``golden.json`` pins for seed 42."""
        self.golden = dict(self.expected)

    # -- one operation: untimed preparation, the timed call, untimed digest --

    def before_op(self, program: dict):
        return None

    def timed_op(self, recorder, program: dict, token):
        if recorder.enabled:
            return digest_staged(recorder, run_staged(
                recorder, program["text"], self.sources, self.engine
            ))
        return run_query(program["text"], self.sources, self.engine)

    def after_op(self, outcome, token):
        return outcome

    def run_ops(self, recorder, seconds: float, max_ops: int | None) -> tuple:
        """The closed loop of one client; returns ``(ops, busy seconds)``."""
        ops: list = []
        started = perf_counter()
        while True:
            index = len(ops)
            active, turn = paired(recorder, index)
            program = self.programs[turn % len(self.programs)]
            token = self.before_op(program)
            self.unit_ms.append(calibrate.unit())
            begun = perf_counter()
            try:
                with active.op(index):
                    outcome = self.timed_op(active, program, token)
                elapsed = perf_counter() - begun
                digest, error = self.after_op(outcome, token), None
            except Exception as exc:  # a failed operation is a counted result
                elapsed, digest, error = perf_counter() - begun, None, repr(exc)
            ops.append(Op(program["name"], elapsed, digest, error,
                          traced=active.enabled, turn=turn))
            if _loop_done(started, seconds, len(ops), max_ops):
                break
        # One client: time between operations is the harness's own.
        return ops, sum(op.seconds for op in ops)

    def failures(self, ops: list) -> list:
        """Operations that raised or whose digest is not the expected one."""
        return [
            op for op in ops
            if op.error is not None or op.digest != self.expected[op.program]
        ]

    def staged_pass(self, recorder) -> list:
        """Every program staged in-process three times over the resident
        sources, for the engine and digest layers' numbers (the served
        and the batch workload run the engine out of the traced loop's
        sight).  Returns the program of each staged operation."""
        staged = []
        for __ in range(3):
            for program in self.programs:
                digest_staged(recorder, run_staged(
                    recorder, program["text"], self.sources, self.engine
                ))
                staged.append(program["name"])
        return staged

    def close(self) -> None:
        self.sources = {}


def reset_process_state() -> None:
    """What a fresh ``repro run`` process would start with."""
    from repro.store.cache import reset_result_cache
    from repro.store.persist import (
        close_opened_segments,
        reset_residency_ledger,
        set_store_root,
    )

    reset_result_cache()
    set_store_root(None)
    close_opened_segments()
    reset_residency_ledger()


def _tree_digest(directory: str) -> str:
    """Digest of every file under *directory* (names and bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


class ColdBatchWorkload(InProcessWorkload):
    """``cold_batch``: every operation is a whole ``repro run``."""

    def __init__(self, name: str, seed: int, factor: float, tmp: str) -> None:
        super().__init__(name, seed, factor, tmp)
        self.source_dirs: dict = {}
        self.program_paths: dict = {}
        self._serial = 0

    def setup(self) -> None:
        from repro.formats import write_dataset

        super().setup()
        shutil.rmtree(self.tmp, ignore_errors=True)
        root = os.path.join(self.tmp, "sources")
        for name, dataset in self.sources.items():
            self.source_dirs[name] = os.path.join(root, name)
            write_dataset(dataset, self.source_dirs[name])
        for program in self.programs:
            path = os.path.join(root, program["name"] + ".gmql")
            with open(path, "w") as handle:
                handle.write(program["text"])
            self.program_paths[program["name"]] = path

    def warmup(self) -> None:
        self._warm_dirs = {}
        for program in self.programs:
            base = self.before_op(program)
            out_dir = self.timed_op(OFF, program, base)
            self._warm_dirs[program["name"]] = (base, out_dir)
        reset_process_state()

    def collect_golden(self) -> None:
        """Digest what the warm-up runs wrote: the bytes every timed run
        must repeat, and the row digest of the files read back."""
        from repro.formats import read_dataset

        for name, (base, out_dir) in self._warm_dirs.items():
            self.expected[name] = _tree_digest(out_dir)
            self.golden[name] = results_digest({
                output: read_dataset(os.path.join(out_dir, output), output)
                for output in sorted(os.listdir(out_dir))
            })
            shutil.rmtree(base, ignore_errors=True)

    def before_op(self, program: dict) -> str:
        self._serial += 1
        reset_process_state()
        return os.path.join(self.tmp, f"run-{self._serial}")

    def timed_op(self, recorder, program: dict, base: str) -> str:
        out_dir = os.path.join(base, "out")
        store_dir = os.path.join(base, "store")
        if recorder.enabled:
            self._staged_run(recorder, program, out_dir, store_dir)
        else:
            self._cli_run(program, out_dir, store_dir)
        return out_dir

    def after_op(self, out_dir: str, base: str) -> str:
        try:
            return _tree_digest(out_dir)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def _cli_run(self, program: dict, out_dir: str, store_dir: str) -> None:
        from repro.cli import main

        argv = ["run", self.program_paths[program["name"]],
                "--engine", self.engine,
                "--out", out_dir, "--store-dir", store_dir]
        for name in sorted(self.source_dirs):
            argv += ["--source", f"{name}={self.source_dirs[name]}"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"repro run exited with {code}")

    def _staged_run(self, recorder, program: dict, out_dir: str,
                    store_dir: str) -> None:
        """``repro run`` rebuilt from its public pieces, one span each.
        Derived-store builds and the disk result-cache write happen
        inside ``engine.run`` and cannot be split from outside."""
        from repro.formats import read_dataset, write_dataset
        from repro.store.cache import reset_result_cache
        from repro.store.persist import set_store_root

        set_store_root(store_dir, sync=True)
        try:
            with recorder.span("formats.read"):
                sources = {
                    name: read_dataset(self.source_dirs[name], name)
                    for name in sorted(self.source_dirs)
                }
            # As the CLI does, after the store root is set: the fresh
            # cache then keeps its disk level beside the store.
            reset_result_cache()
            results = run_staged(
                recorder, program["text"], sources, self.engine,
                result_cache=True,
            )
            with recorder.span("formats.write"):
                for name, dataset in results.items():
                    dataset.summary()  # the line the CLI prints per output
                    write_dataset(dataset, os.path.join(out_dir, name))
        finally:
            set_store_root(None)

    def run_ops(self, recorder, seconds, max_ops) -> tuple:
        try:
            return super().run_ops(recorder, seconds, max_ops)
        finally:
            reset_process_state()


class ServeMixWorkload(InProcessWorkload):
    """``serve_mix``: an in-thread server, two keep-alive clients in a
    closed loop, four requests in seven from a hot set of four programs
    and three unique by parameter."""

    clients = SERVE_CLIENTS

    def __init__(self, name: str, seed: int, factor: float, tmp: str) -> None:
        super().__init__(name, seed, factor, tmp)
        self.thread = None
        self._next_unique = 0
        self._unique_lock = threading.Lock()

    def setup(self) -> None:
        from repro.serve import (
            AdmissionController,
            QueryServer,
            ServerThread,
            TenantQuota,
            WarmState,
        )
        from repro.store.cache import reset_result_cache

        self.close()
        super().setup()
        reset_result_cache()
        state = WarmState(
            self.sources, engine=self.engine, workers=SERVE_WORKERS,
            result_cache_enabled=True,
        )
        # No deadline cap: a capped request carries a private deadline
        # and is never coalesced with an identical one in flight.
        admission = AdmissionController(default_quota=TenantQuota(
            max_concurrent=2 * SERVE_CLIENTS, max_per_window=None,
            max_deadline_seconds=None,
        ))
        self.thread = ServerThread(QueryServer(
            state, admission=admission,
            max_concurrency=SERVE_MAX_CONCURRENCY,
        )).start()

    def _client(self):
        from repro.serve import ServeClient

        return ServeClient(port=self.thread.port)

    def _take_unique(self) -> dict:
        with self._unique_lock:
            index = self._next_unique
            self._next_unique += 1
        return unique_program(index)

    def warmup(self) -> None:
        with contextlib.closing(self._client()) as client:
            for program in self.programs:
                response = client.query(program["text"])
                if not response.ok:
                    raise RuntimeError(
                        f"warm-up of {program['name']} failed: "
                        f"{response.payload}"
                    )
                self.expected[program["name"]] = response.payload["digest"]
            # Both unique forms once, so their lazy first-use work is
            # not billed to the first timed request.
            for __ in range(2):
                client.query(self._take_unique()["text"])

    def _request(self, recorder, client, program: dict) -> Op:
        begun = perf_counter()
        with recorder.span("serve.request"):
            response = client.query(program["text"])
            ended = perf_counter()
            if response.ok and recorder.enabled:
                # The server's own timings, placed inside the request.
                timing = response.payload["timing"]
                queued = timing["queued_ms"] / 1000.0
                executed = timing["execute_ms"] / 1000.0
                recorder.add_span("serve.queued", begun, begun + queued)
                recorder.add_span(
                    "engine.execute", begun + queued,
                    begun + queued + executed,
                )
        if not response.ok:
            return Op(program["name"], ended - begun, None,
                      f"HTTP {response.status}: {response.payload}",
                      traced=recorder.enabled)
        return Op(program["name"], ended - begun,
                  response.payload["digest"], detail=response.payload,
                  traced=recorder.enabled)

    def run_ops(self, recorder, seconds, max_ops) -> tuple:
        """The closed loop of the clients; returns ``(ops, wall seconds)``.

        The clients work in rounds of :data:`SERVE_ROUND` requests each.
        Between rounds they meet, one of them times the reference unit
        while no request is in flight (see calibrate.py), and they
        decide together whether the loop is over.
        """
        per_client = None if max_ops is None else max(1, max_ops // self.clients)
        round_size = min(SERVE_ROUND, per_client or SERVE_ROUND)
        results: list = [[] for __ in range(self.clients)]
        errors: list = []
        start_line = threading.Barrier(self.clients + 1)
        meeting = threading.Barrier(self.clients)
        shared = {"stop": False, "paused": 0.0}

        def client_loop(slot: int) -> None:
            hot = list(self.programs)
            random.Random(self.seed * 1000 + slot).shuffle(hot)
            ops = results[slot]
            try:
                with contextlib.closing(self._client()) as client:
                    client.healthz()  # connect before the clock starts
                    start_line.wait()
                    started = perf_counter()
                    while not shared["stop"]:
                        for __ in range(round_size):
                            active, turn = paired(recorder, len(ops))
                            if turn % UNIQUE_CYCLE in UNIQUE_TURNS:
                                program = self._take_unique()
                            else:
                                program = hot[turn % len(hot)]
                            with active.op((slot, len(ops))):
                                op = self._request(active, client, program)
                            op.turn = (slot, turn)
                            ops.append(op)
                        if meeting.wait() == 0:  # one client, all idle
                            paused = perf_counter()
                            self.unit_ms.extend(
                                calibrate.unit() for __ in range(SERVE_UNITS)
                            )
                            shared["stop"] = _loop_done(
                                started, seconds, len(ops), per_client
                            )
                            shared["paused"] += perf_counter() - paused
                        meeting.wait()
            except BaseException as exc:
                errors.append(exc)
                start_line.abort()
                meeting.abort()

        threads = [
            threading.Thread(target=client_loop, args=(slot,),
                             name=f"perf-client-{slot}")
            for slot in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            start_line.wait()
        except threading.BrokenBarrierError:
            pass
        started = perf_counter()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started - shared["paused"]
        if errors:
            raise errors[0]
        return [op for ops in results for op in ops], wall

    def failures(self, ops: list) -> list:
        """Hot requests must repeat the warm-up digest; a seeded sample
        of the unique ones is recomputed in-process on ``columnar``, as
        are the hot programs themselves."""
        failed = []
        unique = []
        for op in ops:
            if op.error is not None:
                failed.append(op)
            elif op.program in self.expected:
                if op.digest != self.expected[op.program]:
                    failed.append(op)
            else:
                unique.append(op)
        sample = random.Random(self.seed).sample(
            unique, min(SERVE_VERIFY_SAMPLE, len(unique))
        )
        hot = [
            Op(program["name"], 0.0, self.expected[program["name"]])
            for program in self.programs
        ]
        texts = {program["name"]: program["text"] for program in self.programs}
        for op in hot + sample:
            text = texts.get(op.program) or unique_program(
                int(op.program.rpartition("_")[2])
            )["text"]
            if run_query(text, self.sources, "columnar") != op.digest:
                failed.append(op)
        return failed

    def stats(self) -> dict:
        with contextlib.closing(self._client()) as client:
            return client.stats().payload

    def close(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None
        super().close()


def make_workload(name: str, seed: int, factor: float, tmp: str):
    kind = {
        "cold_batch": ColdBatchWorkload,
        "serve_mix": ServeMixWorkload,
    }.get(name, InProcessWorkload)
    return kind(name, seed, factor, tmp)
