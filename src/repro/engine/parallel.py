"""The parallel backend: the columnar operators on a process pool.

Models the cluster execution of the paper's section 4.2 on a single
machine the way the paper describes it -- the same operator encodings,
re-hosted on another executor.  :class:`ParallelBackend` inherits every
operator from :class:`~repro.engine.columnar.ColumnarBackend` and
overrides only :meth:`~ColumnarBackend.submit_kernel`, the hook those
operators hand each (unit, chromosome) piece of array work to: instead
of deferring the call it ships the arrays to a worker and returns the
pool future.  Planning, zone-map pruning and row rehydration run in the
parent in the shared operator code, so results are byte-identical by
construction; operators without an array kernel (exact or joinby
DIFFERENCE, object-reduced MAP) run inline like everything else the
columnar backend delegates.

Block arrays travel through the backend's
:class:`~repro.store.ArrayShipper`: an mmap handle when the array is a
view of a persisted store segment, a ``multiprocessing.shared_memory``
segment when shared memory works and the array is worth one (one
segment per distinct array, shared by every piece that references it),
a pickle otherwise.  Only the kernels' result arrays travel back.
Workers never see plan or engine objects: they receive a kernel
function, array handles and scalars.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from repro.engine.columnar import ColumnarBackend
from repro.store.shm import ArrayShipper, materialise

#: The shipper byte totals mirrored into the context metrics as
#: ``shm.<name>``.
_SHIPPED_COUNTERS = ("bytes_shared", "bytes_pickled", "bytes_mapped")


def default_workers() -> int:
    """Worker count when unconfigured: the CPU count with headroom left
    for the parent process."""
    return max(2, min(8, (os.cpu_count() or 2) - 1))


def _run_shipped(fn, handles: list, scalars: dict):
    """Worker side of :meth:`ParallelBackend.submit_kernel`.

    Attaches the shipped arrays, runs ``fn(*arrays, **scalars)`` and
    releases the attachments before returning -- so *fn* must return
    freshly allocated arrays, never views into its inputs.
    """
    arrays, release = materialise(handles)
    try:
        return fn(*arrays, **scalars)
    finally:
        release()


class ParallelBackend(ColumnarBackend):
    """Process-pool executor for the columnar operator library.

    With *pool*, the backend submits kernels to an externally owned
    ``ProcessPoolExecutor`` instead of creating its own: the query
    server keeps one warm pool resident and hands it to every backend
    slot, so concurrent queries multiplex onto the same worker
    processes and no request ever pays pool start-up.  ``close`` never
    shuts a borrowed pool down -- its owner decides when workers die.
    """

    name = "parallel"

    def __init__(
        self, max_workers: int | None = None, pool=None
    ) -> None:
        super().__init__()
        self._explicit_workers = max_workers is not None
        self._max_workers = max_workers or default_workers()
        self._pool: ProcessPoolExecutor | None = None
        self._borrowed_pool = pool
        self._shipper: ArrayShipper | None = None
        self._shipped_reported = dict.fromkeys(_SHIPPED_COUNTERS, 0)

    @property
    def max_workers(self) -> int:
        """The worker count the (lazily created) pool will use."""
        return self._max_workers

    def bind_context(self, context):
        """Adopt the context's worker count unless explicitly configured.

        The pool is created lazily on first kernel call, so rebinding
        before execution re-sizes it; once the pool exists it is kept
        (one ``ProcessPoolExecutor`` per backend instance, reused across
        kernels).  Replacing or unbinding a context ends its query, so
        the shipper releases every array that query did not ship: a
        backend that lives for many queries holds only the last one's,
        and a resident source keeps its segments.
        """
        if (
            self._shipper is not None
            and self._context is not None
            and context is not self._context
        ):
            self._shipper.release_unused()
        super().bind_context(context)
        if (
            context is not None
            and context.workers is not None
            and not self._explicit_workers
            and self._pool is None
        ):
            self._max_workers = context.workers
        return self

    def _executor(self) -> ProcessPoolExecutor:
        if self._borrowed_pool is not None:
            return self._borrowed_pool
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def shipper(self) -> ArrayShipper:
        """The backend's (lazily created) array shipper."""
        if self._shipper is None:
            self._shipper = ArrayShipper()
        return self._shipper

    def submit_kernel(self, fn, arrays, **scalars):
        """Ship *arrays* and run ``fn`` on a pool worker; returns the future."""
        shipper = self.shipper()
        handles = [shipper.ship(array) for array in arrays]
        if self._context is not None:
            # Account shipping byte deltas into the context metrics.
            for name in _SHIPPED_COUNTERS:
                total = getattr(shipper, name)
                delta = total - self._shipped_reported[name]
                if delta:
                    self._context.metrics.increment(f"shm.{name}", delta)
                    self._shipped_reported[name] = total
        return self._executor().submit(_run_shipped, fn, handles, scalars)

    def close(self) -> None:
        """Shut the worker pool down and unlink shared segments (idempotent).

        Order matters: workers drain first (``shutdown(wait=True)``), then
        the shipper unlinks -- a segment must never disappear under a
        still-running kernel.  A borrowed pool is left running: other
        backend slots may be mid-query on it, and its owner (the query
        server's warm state) shuts it down at server stop.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shipper is not None:
            self._shipper.close()
            self._shipper = None
            self._shipped_reported = dict.fromkeys(_SHIPPED_COUNTERS, 0)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
