"""The ``auto`` backend: per-operator kernel routing.

The paper's architecture keeps "one logical plan, several backends"; this
module adds the missing policy layer that picks a backend *per operator*
instead of per query.  Region-heavy operators (MAP, JOIN, COVER,
DIFFERENCE) go to the process-pool backend once inputs are large enough
to amortise pickling, mid-size work goes to the numpy columnar kernels,
and tiny inputs stay on the naive record-at-a-time reference where
per-call overhead dominates.

The policy, :func:`choose_backend`, runs once per node at plan time:
the physical planner (:mod:`repro.gmql.lang.physical`) calls it with
*estimated* cardinalities and annotates each node, and
:class:`AutoBackend` hands the interpreter the delegate the node names.
"""

from __future__ import annotations

from repro.engine.base import Backend
from repro.store import shared_memory_available

#: Input-region count above which region-heavy operators are worth
#: shipping to worker processes (pickling cost must be amortised).
PARALLEL_REGION_THRESHOLD = 50_000

#: Lower break-even point when block arrays travel through POSIX shared
#: memory instead of pickles: workers attach to segments instead of
#: deserialising region objects, so the fan-out pays off much earlier.
PARALLEL_REGION_THRESHOLD_SHM = 20_000

#: Lowest break-even point when a persistent store root is configured:
#: disk-resident blocks ship as ``(path, offset, shape, dtype)`` handles
#: (see :func:`repro.store.persist.mmap_descriptor`), so a morsel's
#: marginal shipping cost is a tuple pickle and fan-out pays off almost
#: immediately.
PARALLEL_REGION_THRESHOLD_MMAP = 10_000

#: Input-region count above which vectorised columnar kernels win over
#: the record-at-a-time reference implementation.
COLUMNAR_REGION_THRESHOLD = 2_000

#: Per-kind overrides of :data:`COLUMNAR_REGION_THRESHOLD`.  The
#: event-sweep kernels (:mod:`repro.store.cover_kernels`) do a constant
#: number of array passes per chromosome -- no per-pair or per-hit work
#: at all -- so their break-even against the naive per-region
#: accumulators sits far below the pair-kernel operators'.
COLUMNAR_KIND_THRESHOLDS = {"cover": 500, "difference": 1_000}

#: Operators with genome-partitionable kernels in the parallel backend.
PARALLEL_OPERATORS = frozenset({"map", "join", "cover", "difference"})

#: The plan-node kind executed by the interpreter itself (no kernel).
SOURCE_KIND = "scan"


def parallel_threshold() -> int:
    """Effective fan-out break-even for this host.

    Shared memory removes most serialisation cost, moving the break-even
    point down, and a persisted store root removes nearly all of it
    (workers re-map immutable segment files); hosts without shared
    memory keep the conservative pickle threshold.
    """
    from repro.store.persist import store_root

    if store_root() is not None:
        return PARALLEL_REGION_THRESHOLD_MMAP
    if shared_memory_available():
        return PARALLEL_REGION_THRESHOLD_SHM
    return PARALLEL_REGION_THRESHOLD


def choose_backend(
    kind: str, input_regions: float, available: tuple, effects=None
) -> tuple:
    """Pick a backend for one operator; returns ``(name, reason)``.

    Parameters
    ----------
    kind:
        Plan-node kind (``map``, ``select``...), lower-case.
    input_regions:
        Estimated total regions across the operator's inputs.
    available:
        Registered backend names; choices degrade gracefully when the
        parallel or columnar backend is unavailable.
    effects:
        The node's inferred :class:`~repro.gmql.lang.effects.Effects`
        record, when the caller has one.  Replaces the hard-coded
        operator allowlists: fan-out requires morsel safety, and a
        finite ``input_bound`` caps the bare row-count estimate (a
        provably small input never routes to a heavyweight backend on
        an inflated estimate).
    """
    kind = kind.lower()
    if kind == SOURCE_KIND:
        return "source", "scans read datasets directly"
    bound_note = ""
    if effects is not None and effects.input_bound is not None:
        if effects.input_bound < input_regions:
            bound_note = (
                f" (estimate capped by inferred bound "
                f"<={effects.input_bound})"
            )
            input_regions = effects.input_bound
    morsel_safe = (
        effects.morsel_safe if effects is not None
        else kind in PARALLEL_OPERATORS
    )
    if (
        kind in PARALLEL_OPERATORS
        and morsel_safe
        and input_regions >= parallel_threshold()
        and "parallel" in available
    ):
        return (
            "parallel",
            f"{kind} over ~{int(input_regions)} regions: "
            f"partition across worker processes{bound_note}",
        )
    columnar_threshold = COLUMNAR_KIND_THRESHOLDS.get(
        kind, COLUMNAR_REGION_THRESHOLD
    )
    if input_regions >= columnar_threshold and "columnar" in available:
        return (
            "columnar",
            f"{kind} over ~{int(input_regions)} regions: vectorised kernels",
        )
    return (
        "naive",
        f"{kind} over ~{int(input_regions)} regions: "
        f"small input, per-call overhead dominates",
    )


class AutoBackend(Backend):
    """Runs each physical node on the backend the planner routed it to.

    Delegate backends are created lazily, one per name, and share this
    backend's context; the interpreter's span for each node records the
    delegate that ran it.
    """

    name = "auto"

    def __init__(self, workers: int | None = None, pool=None) -> None:
        super().__init__()
        self._workers = workers
        self._pool = pool
        self._delegates: dict = {}

    def delegate(self, name: str) -> Backend:
        """The delegate backend for *name* (``auto``/``source`` -> naive)."""
        name = name.lower()
        if name in (self.name, SOURCE_KIND, "source", ""):
            name = "naive"
        backend = self._delegates.get(name)
        if backend is None:
            backend = self._make_delegate(name)
            if self._context is not None:
                backend.bind_context(self._context)
            self._delegates[name] = backend
        return backend

    def _make_delegate(self, name: str) -> Backend:
        if name == "parallel" and (
            self._workers is not None or self._pool is not None
        ):
            from repro.engine.parallel import ParallelBackend

            return ParallelBackend(
                max_workers=self._workers, pool=self._pool
            )
        from repro.engine.dispatch import get_backend

        return get_backend(name)

    def bind_context(self, context):
        super().bind_context(context)
        for backend in self._delegates.values():
            backend.bind_context(context)
        return self

    def close(self) -> None:
        """Release delegate resources (worker pools); idempotent."""
        for backend in self._delegates.values():
            backend.close()
