"""The ``auto`` backend: per-operator kernel routing.

The paper's architecture keeps "one logical plan, several backends"; this
module is the one placement policy that picks a backend *per operator*
instead of per query.  It is one rule over the operator's estimated
input size: JOIN and COVER fan out to the process-pool backend from
:data:`PARALLEL_REGION_THRESHOLD`, every other operator (and a smaller
JOIN or COVER) runs on the numpy columnar kernels from
:data:`COLUMNAR_REGION_THRESHOLD`, and tiny inputs stay on the naive
record-at-a-time reference where per-call overhead dominates.  Both
constants are measured, the same on every host; ``docs/PERFORMANCE.md``
("Choosing auto's thresholds") has the tables.

The policy, :func:`choose_backend`, runs once per node at plan time:
the physical planner (:mod:`repro.gmql.lang.physical`) calls it with
*estimated* cardinalities and annotates each node, and
:class:`AutoBackend` hands the interpreter the delegate the node names.
"""

from __future__ import annotations

from repro.engine.base import Backend

#: Input-region count from which JOIN and COVER win on worker
#: processes: below it the fan-out's shipping and merging cost more
#: than the kernel time they split.  MAP lost at every size measured,
#: and DIFFERENCE's kernel is the same single overlap pass, so no other
#: operator fans out.
PARALLEL_REGION_THRESHOLD = 750_000

#: Input-region count from which the vectorised columnar kernels are
#: never slower than the record-at-a-time reference, for any operator.
COLUMNAR_REGION_THRESHOLD = 650

#: The plan-node kind executed by the interpreter itself (no kernel).
SOURCE_KIND = "scan"


def choose_backend(kind: str, input_regions: float, effects=None) -> tuple:
    """Pick a backend for one operator; returns ``(name, reason)``.

    Parameters
    ----------
    kind:
        Plan-node kind (``map``, ``select``...), lower-case.
    input_regions:
        Estimated total regions across the operator's inputs.
    effects:
        The node's inferred :class:`~repro.gmql.lang.effects.Effects`
        record, when the caller has one.  A finite ``input_bound`` caps
        the bare row-count estimate, so a provably small input never
        routes to a heavyweight backend on an inflated estimate.
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
    size = f"{kind} over ~{int(input_regions)} regions"
    fans_out = kind in ("join", "cover")
    if fans_out and input_regions >= PARALLEL_REGION_THRESHOLD:
        return (
            "parallel",
            f"{size}: partition across worker processes{bound_note}",
        )
    if input_regions >= COLUMNAR_REGION_THRESHOLD:
        return "columnar", f"{size}: vectorised kernels{bound_note}"
    return (
        "naive",
        f"{size}: small input, per-call overhead dominates{bound_note}",
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
