"""Execution backend interface.

"The two implementations differ only in the encoding of about twenty GMQL
language components, while the compiler, logical optimizer, and APIs/UIs
are independent from the adoption of either framework" (paper, section
4.2).  We reproduce exactly that architecture: one logical plan, several
:class:`Backend` implementations that differ only in their operator
kernels.  The interpreter (:mod:`repro.gmql.lang.interpreter`) runs a
physical plan, asks the backend for the :meth:`Backend.delegate` that
executes each node, calls its ``run_*`` method and never looks inside.

Backends keep no record of what they ran: the interpreter's span per
plan node (:class:`~repro.engine.context.Span`, wall time, cardinalities
and the executing backend) is the one record of an execution.  A
backend bound to an :class:`~repro.engine.context.ExecutionContext`
(:meth:`Backend.bind_context`) checks it for cancellation/deadline
before every kernel.
"""

from __future__ import annotations

from repro.gdm import Dataset


class Backend:
    """Base class of execution backends.

    Subclasses implement the ``run_*`` kernels; the base class provides
    the pre-kernel cancellation check (:meth:`checked`), context binding
    and the one-backend :meth:`delegate`.
    """

    #: Backend name used by :func:`repro.engine.dispatch.get_backend`.
    name = "abstract"

    def __init__(self) -> None:
        self._context = None

    @property
    def context(self):
        """The bound :class:`ExecutionContext`, or ``None``."""
        return self._context

    def bind_context(self, context) -> "Backend":
        """Attach an execution context (cancellation, metrics, config)."""
        self._context = context
        return self

    def delegate(self, name: str) -> "Backend":
        """The backend that executes a physical node routed to *name*.

        A named engine runs every node itself; only ``auto`` routes
        nodes to other backends.
        """
        return self

    # -- resource lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker pools...); idempotent no-op here."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- columnar-store configuration -------------------------------------------

    def store_bin_size(self) -> int | None:
        """Zone-map bin size for this run (``None`` = the store default)."""
        return self._context.bin_size if self._context is not None else None

    def dataset_store(self, dataset: Dataset, bin_size: int | None = None):
        """The dataset's columnar store resolved through this backend.

        The one place the run's bin size meets :meth:`Dataset.store`,
        which resolves the process store root and persist mode itself
        (see :func:`repro.store.persist.set_store_root`).
        """
        return dataset.store(
            bin_size if bin_size is not None else self.store_bin_size()
        )

    def note_pruned(self, partitions: int) -> None:
        """Account zone-map-pruned partitions into the context metrics."""
        if partitions and self._context is not None:
            self._context.metrics.increment(
                "store.partitions_pruned", partitions
            )

    def note_kernel(self, name: str) -> None:
        """Annotate the current trace span with the kernel that ran.

        Shows up as ``kernel=<name>`` in ``repro trace`` output, so a
        plan's physical annotation reveals whether e.g. a JOIN hit the
        vectorised pair kernel or fell back to the per-region loop.
        """
        if self._context is None:
            return
        span = self._context.tracer.current
        if span is not None:
            span.annotate(kernel=name)

    def checked(self, operator: str, fn, *args, **kwargs) -> Dataset:
        """Run the *operator* kernel ``fn(*args, **kwargs)`` once the
        bound context has passed its cancellation/deadline check."""
        if self._context is not None:
            self._context.check()
        return fn(*args, **kwargs)

    # -- operator kernels (one per logical plan node kind) ---------------------

    def run_select(self, plan, child: Dataset, semijoin_data: Dataset | None):
        raise NotImplementedError

    def run_project(self, plan, child: Dataset):
        raise NotImplementedError

    def run_extend(self, plan, child: Dataset):
        raise NotImplementedError

    def run_merge(self, plan, child: Dataset):
        raise NotImplementedError

    def run_group(self, plan, child: Dataset):
        raise NotImplementedError

    def run_order(self, plan, child: Dataset):
        raise NotImplementedError

    def run_union(self, plan, left: Dataset, right: Dataset):
        raise NotImplementedError

    def run_difference(self, plan, left: Dataset, right: Dataset):
        raise NotImplementedError

    def run_cover(self, plan, child: Dataset):
        raise NotImplementedError

    def run_map(self, plan, reference: Dataset, experiment: Dataset):
        raise NotImplementedError

    def run_join(self, plan, anchor: Dataset, experiment: Dataset):
        raise NotImplementedError
