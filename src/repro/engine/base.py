"""Execution backend interface.

"The two implementations differ only in the encoding of about twenty GMQL
language components, while the compiler, logical optimizer, and APIs/UIs
are independent from the adoption of either framework" (paper, section
4.2).  We reproduce exactly that architecture: one logical plan, several
:class:`Backend` implementations that differ only in their operator
kernels.  The interpreter (:mod:`repro.gmql.lang.interpreter`) calls the
``run_*`` methods and never looks inside.

Backends collect :class:`EngineStats`: one :class:`NodeStat` record per
kernel invocation (operator, executing backend, plan-node label, wall
time, output cardinalities), with aggregate views (``operator_seconds``,
``operator_calls``...) kept for the framework-comparison benchmark
(experiment E7) and other pre-existing consumers.

A backend may be bound to an :class:`~repro.engine.context.ExecutionContext`
(:meth:`Backend.bind_context`): every kernel then checks for
cancellation/deadline before running and accounts per-operator metrics
into the context's registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gdm import Dataset
from repro.resilience.clock import perf_counter


@dataclass(frozen=True)
class NodeStat:
    """One kernel invocation: which operator ran where, on what, for how long."""

    operator: str
    backend: str
    seconds: float
    regions: int
    samples: int
    label: str = ""


class EngineStats:
    """Accumulated execution statistics for one query run.

    Stored as a flat list of per-invocation :class:`NodeStat` records;
    the dictionary views used by older callers (``operator_seconds``,
    ``operator_calls``) are derived on access.
    """

    def __init__(self) -> None:
        self.records: list = []

    def record(
        self,
        operator: str,
        seconds: float,
        result: Dataset,
        backend: str = "",
        label: str = "",
    ) -> None:
        """Account one operator invocation."""
        self.records.append(
            NodeStat(
                operator,
                backend,
                seconds,
                result.region_count(),
                len(result),
                label,
            )
        )

    # -- aggregate views (backwards compatible) ---------------------------------

    @property
    def operator_seconds(self) -> dict:
        """``{operator: total seconds}`` across all invocations."""
        out: dict = {}
        for stat in self.records:
            out[stat.operator] = out.get(stat.operator, 0.0) + stat.seconds
        return out

    @property
    def operator_calls(self) -> dict:
        """``{operator: number of invocations}``."""
        out: dict = {}
        for stat in self.records:
            out[stat.operator] = out.get(stat.operator, 0) + 1
        return out

    @property
    def regions_produced(self) -> int:
        return sum(stat.regions for stat in self.records)

    @property
    def samples_produced(self) -> int:
        return sum(stat.samples for stat in self.records)

    def total_seconds(self) -> float:
        """Total time spent inside operator kernels."""
        return sum(stat.seconds for stat in self.records)

    def by_backend(self) -> dict:
        """``{backend: total seconds}`` -- where time went under ``auto``."""
        out: dict = {}
        for stat in self.records:
            key = stat.backend or "?"
            out[key] = out.get(key, 0.0) + stat.seconds
        return out

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another stats object's records into this one."""
        self.records.extend(other.records)
        return self


class Backend:
    """Base class of execution backends.

    Subclasses implement the ``run_*`` kernels; the base class provides
    stats accounting via :meth:`timed` and optional context binding.
    """

    #: Backend name used by :func:`repro.engine.dispatch.get_backend`.
    name = "abstract"

    def __init__(self) -> None:
        self.stats = EngineStats()
        self._context = None

    @property
    def context(self):
        """The bound :class:`ExecutionContext`, or ``None``."""
        return self._context

    def bind_context(self, context) -> "Backend":
        """Attach an execution context (cancellation, metrics, config)."""
        self._context = context
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
        """Zone-map bin size for this run (context, env, or store default)."""
        if self._context is not None and self._context.bin_size is not None:
            return self._context.bin_size
        from repro.engine.context import bin_size_from_env

        return bin_size_from_env()

    def store_root(self) -> str | None:
        """The persistent store root for this run (context, then process).

        Per-run override via ``config={"store_dir": ...}`` (the CLI
        ``--store-dir`` flag lands there); falls back to the process
        default (:func:`repro.store.persist.store_root`).  ``None``
        keeps the storage layer purely in-memory.
        """
        if self._context is not None:
            configured = self._context.config.get("store_dir")
            if configured is not None:
                return str(configured) or None
        from repro.store.persist import store_root

        return store_root()

    def store_sync(self) -> bool | None:
        """Persist mode override (``config={"store_sync": bool}``)."""
        if self._context is not None:
            configured = self._context.config.get("store_sync")
            if configured is not None:
                return bool(configured)
        return None

    def dataset_store(self, dataset: Dataset, bin_size: int | None = None):
        """The dataset's columnar store resolved through this backend.

        The one place run-scoped storage configuration (bin size, store
        root, persist mode) meets :meth:`Dataset.store`; every kernel
        obtains stores through here so a ``--store-dir`` flag reaches
        all of them without per-operator plumbing.
        """
        return dataset.store(
            bin_size if bin_size is not None else self.store_bin_size(),
            root=self.store_root(),
            sync=self.store_sync(),
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

    def reset_stats(self) -> None:
        """Clear accumulated statistics (e.g. between benchmark runs)."""
        self.stats = EngineStats()

    def timed(self, operator: str, fn, *args, **kwargs) -> Dataset:
        """Run an operator kernel and record its cost."""
        context = self._context
        label = ""
        if context is not None:
            context.check()
            current = context.tracer.current
            if current is not None:
                label = current.label
        started = perf_counter()
        result = fn(*args, **kwargs)
        seconds = perf_counter() - started
        self.stats.record(
            operator, seconds, result, backend=self.name, label=label
        )
        if context is not None:
            context.metrics.increment(f"operator.{operator}.calls")
            context.metrics.observe(f"operator.{operator}.seconds", seconds)
        return result

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
