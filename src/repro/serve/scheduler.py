"""Concurrent query scheduling over warm backend slots.

The scheduler multiplexes admitted queries onto a bounded set of
*backend slots*.  A slot is one backend instance (created lazily, up to
``max_concurrency`` of them) that lives for the whole server: its
kernels, and -- for fan-out engines -- its borrowed handle on the warm
shared process pool, are reused by every query it runs.  Slots exist
because a backend binds one query's :class:`ExecutionContext` at a
time; the pool of slots is what turns that per-query affinity into safe
concurrency.

Synchronous kernel execution runs on a thread pool (one thread per
slot) so the asyncio event loop stays responsive while numpy and worker
processes grind.  Identical in-flight queries are *coalesced*: a
request arriving while the same program text is already executing (and
neither carries a private deadline) awaits the running task instead of
occupying a second slot -- the single-flight pattern that keeps a
thundering herd of popular queries from stampeding the kernels.

A response served wholly from the result cache hashes nothing: the
digest computed with a result travels with its cache entries
(:func:`served_digest`).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.engine.context import ExecutionContext
from repro.gdm.digest import results_digest
from repro.gmql.lang import Interpreter
from repro.resilience.clock import perf_counter


@dataclass(frozen=True)
class QueryOutcome:
    """What one scheduled query produced (shared by coalesced awaiters)."""

    results: dict
    digest: str
    queued_seconds: float
    execute_seconds: float
    cache_hits: int
    cache_misses: int
    digest_reused: bool = False
    coalesced: bool = False


def served_digest(program, results: dict) -> tuple:
    """``(digest, reused)`` of one run's *results*.

    *program* is the :class:`~repro.gmql.lang.physical.PhysicalProgram`
    the interpreter just ran.  The digest memoised on the cache entries
    is returned only when every output was served from the cache in
    this run -- ``cached`` is only ever set with the context's result
    cache on, on a cache-safe node with a fingerprint -- and every
    served entry holds the same digest under this program's ``(output
    name, fingerprint)`` key, so it is only ever returned for the exact
    objects it was hashed from.  Otherwise the rows are hashed and the
    digest is written onto every output's entry; an evicted or replaced
    entry takes it along.
    """
    nodes = list(program.outputs.values())
    entries = [node.cache_entry for node in nodes]
    key = tuple(sorted(
        (name, node.fingerprint) for name, node in program.outputs.items()
    ))
    if nodes and all(node.cached for node in nodes):
        memo = entries[0]._digest_memo
        if memo is not None and memo[0] == key and all(
            entry._digest_memo == memo for entry in entries
        ):
            return memo[1], True
    digest = results_digest(results)
    for entry in entries:
        if entry is not None:
            entry._digest_memo = (key, digest)
    return digest, False


class QueryScheduler:
    """Run compiled programs concurrently on warm backend slots.

    Must be driven from a single asyncio event loop (the server's); the
    kernel work itself runs on the internal thread pool.
    """

    def __init__(self, state, max_concurrency: int = 4) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        self._state = state
        self._max = max_concurrency
        self._idle: asyncio.Queue = asyncio.Queue()
        self._created: list = []  # every slot ever created (for close)
        self._threads = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-serve"
        )
        self._inflight: dict = {}
        self._active = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._closed = False
        self.queries = 0
        self.coalesced = 0
        self.failures = 0
        self.digests_reused = 0

    # -- slot management ---------------------------------------------------------

    async def _acquire_slot(self):
        try:
            return self._idle.get_nowait()
        except asyncio.QueueEmpty:
            if len(self._created) < self._max:
                backend = self._state.make_backend()
                self._created.append(backend)
                return backend
            return await self._idle.get()

    def _release_slot(self, backend) -> None:
        self._idle.put_nowait(backend)

    # -- execution ---------------------------------------------------------------

    def _run_sync(self, compiled, backend, context) -> tuple:
        """Execute on the caller-thread (kernel) side; returns
        ``(results, digest, digest_reused, execute_seconds)``."""
        started = perf_counter()
        interpreter = Interpreter(
            backend, self._state.sources, context=context
        )
        try:
            physical = interpreter.plan(compiled)
            results = interpreter.run_physical(physical)
        finally:
            # Between queries a slot keeps nothing of the last one: the
            # context (its span tree and metrics) and, on fan-out
            # engines, the arrays it shipped are let go here.
            backend.bind_context(None)
        digest, reused = served_digest(physical, results)
        return results, digest, reused, perf_counter() - started

    async def run(
        self,
        program: str,
        context: ExecutionContext | None = None,
        coalescable: bool | None = None,
    ) -> QueryOutcome:
        """Schedule one program; returns its :class:`QueryOutcome`.

        *context* carries the query's deadline/metrics; one is created
        when omitted.  The deadline is honoured end-to-end: it keeps
        ticking while the query waits for a slot, and an expired
        deadline is rejected *before* the kernel runs (the
        ``ExecutionCancelled`` raised here has executed nothing).

        *coalescable* defaults to "no private deadline": requests with
        their own time budget never piggyback on a stranger's run.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if context is None:
            context = ExecutionContext(
                workers=self._state.workers,
                result_cache=self._state.result_cache_enabled,
            )
        if coalescable is None:
            coalescable = context.remaining_seconds() is None
        key = program.strip()
        if coalescable:
            existing = self._inflight.get(key)
            if existing is not None and not existing.done():
                self.coalesced += 1
                outcome = await asyncio.shield(existing)
                self.digests_reused += outcome.digest_reused
                return replace(outcome, coalesced=True)
        task = asyncio.ensure_future(self._execute(program, context))
        if coalescable:
            self._inflight[key] = task
        self._active += 1
        self._drained.clear()
        try:
            outcome = await task
        finally:
            self._active -= 1
            if self._active == 0:
                self._drained.set()
            if coalescable and self._inflight.get(key) is task:
                del self._inflight[key]
        self.digests_reused += outcome.digest_reused
        return outcome

    async def _execute(
        self, program: str, context: ExecutionContext
    ) -> QueryOutcome:
        loop = asyncio.get_running_loop()
        queued_from = perf_counter()
        # Compile (cached after the first sight of a program) off the
        # event loop; semantic rejection surfaces here, before a slot or
        # kernel is touched.
        compiled = await loop.run_in_executor(
            self._threads, self._state.compile, program
        )
        backend = await self._acquire_slot()
        queued_seconds = perf_counter() - queued_from
        try:
            # A deadline that died in the queue never reaches a kernel.
            context.check()
            self.queries += 1
            results, digest, reused, execute_seconds = (
                await loop.run_in_executor(
                    self._threads, self._run_sync, compiled, backend, context
                )
            )
        except Exception:
            self.failures += 1
            raise
        finally:
            self._release_slot(backend)
        return QueryOutcome(
            results=results,
            digest=digest,
            queued_seconds=queued_seconds,
            execute_seconds=execute_seconds,
            cache_hits=context.metrics.counter("result_cache.hits"),
            cache_misses=context.metrics.counter("result_cache.misses"),
            digest_reused=reused,
        )

    # -- observability / lifecycle -----------------------------------------------

    def stats(self) -> dict:
        return {
            "max_concurrency": self._max,
            "slots_created": len(self._created),
            "active": self._active,
            "queries": self.queries,
            "coalesced": self.coalesced,
            "failures": self.failures,
            "digests_reused": self.digests_reused,
        }

    async def aclose(self) -> None:
        """Drain in-flight queries, then close every slot (idempotent).

        Slots close before the shared pool (owned by the warm state)
        shuts down, so shared-memory segments are unlinked only after
        all morsels using them have drained.
        """
        if self._closed:
            return
        self._closed = True
        await self._drained.wait()
        for backend in self._created:
            backend.close()
        self._created.clear()
        while not self._idle.empty():  # already closed above; just empty
            self._idle.get_nowait()
        self._threads.shutdown(wait=True)
