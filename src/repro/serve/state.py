"""Warm server state: everything a query should not pay for twice.

One :class:`WarmState` lives for the whole ``repro serve`` process and
holds the state the CLI rebuilds (and discards) per invocation:

* the **source datasets**, parsed once at startup;
* their **columnar store blocks** (:meth:`warm` builds every store up
  front, so steady-state queries map warm blocks instead of racing to
  build them);
* the **compiled-program cache** -- GMQL text compiles (and optimizes)
  once per distinct program, with exact schemas from the resident
  sources, so repeat queries skip parse/analyze/optimize entirely; an
  LRU of :data:`COMPILED_PROGRAMS_MAX` entries, so a stream of one-off
  programs cannot grow the process without bound;
* one **shared worker process pool**, handed to every backend slot the
  scheduler creates, so fan-out kernels of concurrent queries multiplex
  onto the same warm workers;
* the process-wide **result cache** (two-level when a store root is
  configured), which this module only configures -- entries live in
  :mod:`repro.store.cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

from repro.engine.dispatch import get_backend
from repro.resilience.clock import monotonic, perf_counter
from repro.store.columnar import store_counters

#: Compiled programs kept resident (least recently used evicted first).
#: A compiled program is a few kilobytes of plan nodes; this is sized so
#: a realistic working set of distinct queries stays hot while
#: parameter-swept one-offs age out.
COMPILED_PROGRAMS_MAX = 256


class WarmState:
    """Resident datasets, caches and the shared worker pool.

    Parameters
    ----------
    sources:
        ``{name: Dataset}`` served to every query.
    engine:
        Backend name each scheduler slot runs
        (``naive``/``columnar``/``parallel``/``auto``).
    workers:
        Worker-process count for the shared pool (``None``: the
        parallel backend's default sizing).
    store_dir:
        Persistent store root; the server sets it process-wide for its
        lifetime so blocks and disk-level result-cache entries survive
        restarts (see :mod:`repro.store.persist`).
    result_cache_enabled:
        Whether query contexts may serve plan nodes from the
        process-wide fingerprint cache (on by default -- amortising it
        across requests is the point of a resident server).
    """

    def __init__(
        self,
        sources: dict,
        engine: str = "auto",
        workers: int | None = None,
        store_dir: str | None = None,
        result_cache_enabled: bool = True,
    ) -> None:
        self.sources = dict(sources)
        self.engine = engine
        self.workers = workers
        self.store_dir = store_dir
        self.result_cache_enabled = result_cache_enabled
        self.started_at = monotonic()
        self.warm_seconds: float | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()
        self._compiled: OrderedDict = OrderedDict()
        self._compile_lock = threading.Lock()
        self.compile_hits = 0
        self.compile_misses = 0
        self.compile_evictions = 0

    # -- warm-up -----------------------------------------------------------------

    def warm(self) -> float:
        """Build every source's store blocks up front; returns seconds.

        Two reasons to pay this at startup rather than lazily: the first
        queries are not taxed with block builds, and concurrent first
        queries cannot race to build the same store (the build happens
        once, here, before the listener opens).  With a store root the
        build persists segments; a restart maps them instead.
        """
        started = perf_counter()
        for dataset in self.sources.values():
            store = dataset.store()
            for sample in dataset:
                store.blocks(sample)
            store.zone_map()
        self.warm_seconds = perf_counter() - started
        return self.warm_seconds

    # -- compiled-program cache --------------------------------------------------

    def compile(self, program: str):
        """The optimized :class:`CompiledProgram` for *program* (cached).

        Compilation runs the full semantic analyzer against the resident
        sources (exact schemas), so invalid programs raise
        :class:`~repro.errors.GmqlCompileError` here -- the server's
        cheap ``repro check``-equivalent gate -- before any backend slot
        or kernel is touched.  Compile *failures* are not cached:
        callers reject them outright and a retry loop re-paying the
        parse is the safer trade.
        """
        key = program.strip()
        with self._compile_lock:
            compiled = self._compiled.get(key)
            if compiled is not None:
                self._compiled.move_to_end(key)
                self.compile_hits += 1
                return compiled
        from repro.gmql.lang import compile_program, optimize

        compiled = optimize(compile_program(program, datasets=self.sources))
        with self._compile_lock:
            compiled = self._compiled.setdefault(key, compiled)
            self._compiled.move_to_end(key)
            self.compile_misses += 1
            while len(self._compiled) > COMPILED_PROGRAMS_MAX:
                self._compiled.popitem(last=False)
                self.compile_evictions += 1
            return compiled

    # -- shared worker pool ------------------------------------------------------

    def shared_pool(self) -> ProcessPoolExecutor | None:
        """The process pool backend slots borrow (lazily created).

        Only engines that fan out get one; ``naive``/``columnar`` slots
        never pay worker start-up.
        """
        if self.engine not in ("parallel", "auto"):
            return None
        with self._pool_lock:
            if self._pool is None:
                from repro.engine.parallel import default_workers

                self._pool_workers = self.workers or default_workers()
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_workers
                )
            return self._pool

    def make_backend(self):
        """A fresh backend slot wired to the shared pool.

        Each slot is bound to one query's context at a time (backends
        carry per-query context state), but all slots submit morsels to
        the one warm pool, so worker processes are shared server-wide.
        """
        if self.engine == "parallel":
            from repro.engine.parallel import ParallelBackend

            return ParallelBackend(
                max_workers=self.workers, pool=self.shared_pool()
            )
        if self.engine == "auto":
            from repro.engine.auto import AutoBackend

            return AutoBackend(
                workers=self.workers, pool=self.shared_pool()
            )
        return get_backend(self.engine)

    # -- observability / lifecycle -----------------------------------------------

    def stats(self) -> dict:
        """Warm-state snapshot for ``GET /stats``.

        Block counts are the cumulative process-wide counters, so blocks
        built or mapped for derived datasets count too;
        ``resident_bytes`` is a gauge over the resident sources.
        """
        store_totals = store_counters()
        store_totals["resident_bytes"] = sum(
            dataset.store_stats()["resident_bytes"]
            for dataset in self.sources.values()
        )
        return {
            "engine": self.engine,
            "uptime_seconds": monotonic() - self.started_at,
            "warm_seconds": self.warm_seconds,
            "sources": {
                name: {
                    "samples": len(dataset),
                    "regions": dataset.region_count(),
                }
                for name, dataset in sorted(self.sources.items())
            },
            "store": store_totals,
            "store_dir": self.store_dir,
            "compiled_programs": len(self._compiled),
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "compile_evictions": self.compile_evictions,
            "pool_workers": self._pool_workers,
        }

    def close(self) -> None:
        """Shut the shared pool down (idempotent); slots close elsewhere."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_workers = 0
