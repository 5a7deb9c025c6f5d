"""Plan interpreter: run physical plans on execution backends.

Programs are lowered to *physical* plans first
(:mod:`repro.gmql.lang.physical`): every node carries a cardinality
estimate and a chosen kernel backend, and the backend's
:meth:`~repro.engine.base.Backend.delegate` for that name runs it.
Under the ``auto`` engine that is the per-node choice; a named engine
runs every node itself.

Shared sub-plans are computed once (memoised by logical-node identity),
then every output plan is materialised under its output name.  Execution
is observed through an :class:`~repro.engine.context.ExecutionContext`:
one nested span per plan node (wall time, input/output region and sample
counts, executing backend), cancellation checked before every kernel.
Each physical node keeps a reference to its span, which is the one
record of the run.  The interpreter is the only component that touches
both plans and engines; it contains no operator logic of its own.
"""

from __future__ import annotations

from repro.engine.context import ExecutionContext
from repro.errors import GmqlCompileError
from repro.gdm import Dataset
from repro.gmql.lang.physical import PhysicalNode, PhysicalProgram, plan_program
from repro.gmql.lang.plan import (
    CompiledProgram,
    CoverPlan,
    DifferencePlan,
    EmptyPlan,
    ExtendPlan,
    GroupPlan,
    JoinPlan,
    MapPlan,
    MergePlan,
    OrderPlan,
    ProjectPlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)


class Interpreter:
    """Evaluates plans against source datasets.

    Parameters
    ----------
    backend:
        The engine the query runs on; asked for a delegate per physical
        node (only ``auto`` answers with another backend).
    context:
        Execution context (tracing, metrics, deadline, worker config); a
        fresh one is created when omitted.
    """

    def __init__(self, backend, datasets: dict, context=None) -> None:
        self._backend = backend
        self._datasets = datasets
        self.context = context if context is not None else ExecutionContext()
        backend.bind_context(self.context)
        self._memo: dict = {}

    def _scan(self, node: ScanPlan) -> Dataset:
        try:
            return self._datasets[node.dataset_name]
        except KeyError:
            raise GmqlCompileError(
                f"unknown source dataset {node.dataset_name!r}; "
                f"available: {sorted(self._datasets)}"
            ) from None

    def _empty(self, node: EmptyPlan) -> Dataset:
        """Materialise a statically-proven-empty result: right schema,
        zero samples, no kernel involved."""
        return Dataset(node.result_name or "empty", node.schema, ())

    def _invoke(self, backend, node, operand) -> Dataset:
        """Run one node's kernel on *backend*.

        ``operand(i)`` evaluates the node's i-th operand (in ``children``
        order).
        """
        if isinstance(node, ScanPlan):
            return self._scan(node)
        if isinstance(node, EmptyPlan):
            return self._empty(node)
        if isinstance(node, SelectPlan):
            semijoin_data = operand(1) if len(node.children) > 1 else None
            return backend.run_select(node, operand(0), semijoin_data)
        if isinstance(node, ProjectPlan):
            return backend.run_project(node, operand(0))
        if isinstance(node, ExtendPlan):
            return backend.run_extend(node, operand(0))
        if isinstance(node, MergePlan):
            return backend.run_merge(node, operand(0))
        if isinstance(node, GroupPlan):
            return backend.run_group(node, operand(0))
        if isinstance(node, OrderPlan):
            return backend.run_order(node, operand(0))
        if isinstance(node, UnionPlan):
            return backend.run_union(node, operand(0), operand(1))
        if isinstance(node, DifferencePlan):
            return backend.run_difference(node, operand(0), operand(1))
        if isinstance(node, CoverPlan):
            return backend.run_cover(node, operand(0))
        if isinstance(node, MapPlan):
            return backend.run_map(node, operand(0), operand(1))
        if isinstance(node, JoinPlan):
            return backend.run_join(node, operand(0), operand(1))
        raise GmqlCompileError(f"cannot interpret plan node {node!r}")

    # -- physical evaluation ----------------------------------------------------

    def _run_node(self, physical: PhysicalNode) -> Dataset:
        """Run one physical node (memoised by logical identity).

        When the context enables the result cache and the node carries a
        content-based fingerprint, the process-wide
        :func:`repro.store.cache.result_cache` is consulted first; a hit
        skips the kernel (and the whole subtree) entirely.  Scans are
        never cached -- they are already just dictionary lookups.  The
        entry served or stored is recorded as ``physical.cache_entry``,
        and the node's span as ``physical.span``.
        """
        node = physical.logical
        if id(node) in self._memo:
            return self._memo[id(node)]
        if isinstance(node, EmptyPlan):
            # No kernel, no cache: build the empty result directly (the
            # "empty" backend name never exists as a real delegate).
            with self.context.span(
                physical.label(), backend="empty", pruned_by=node.pruned_by
            ) as span:
                result = self._empty(node)
                span.annotate(output_regions=0, output_samples=0)
            physical.span = span
            self._memo[id(node)] = result
            return result
        cache = None
        if (
            self.context.result_cache
            and physical.fingerprint is not None
            and not isinstance(node, ScanPlan)
            # Effect analysis proves cache safety: a node whose subtree
            # holds computed attributes has no stable content key, so it
            # is neither looked up nor stored.
            and (physical.effects is None or physical.effects.cache_safe)
        ):
            from repro.store.cache import result_cache

            cache = result_cache()
            hit = cache.get(physical.fingerprint)
            if hit is not None:
                self.context.metrics.increment("result_cache.hits")
                with self.context.span(
                    physical.label(), backend="cache", cached=True
                ) as span:
                    span.annotate(
                        output_regions=hit.region_count(),
                        output_samples=len(hit),
                    )
                physical.span = span
                physical.cached = True
                physical.cache_entry = hit
                result = hit
                if node.result_name:
                    result = result.with_name(node.result_name)
                self._memo[id(node)] = result
                return result
            self.context.metrics.increment("result_cache.misses")
        backend = self._backend.delegate(physical.backend)
        with self.context.span(
            physical.label(),
            backend=backend.name if not isinstance(node, ScanPlan) else "source",
            est_regions=int(physical.estimate.regions)
            if physical.estimate is not None
            else None,
        ) as span:
            # Operands are evaluated inside the span, so child spans nest
            # under this node and shared operands appear where first used.
            inputs: list = []

            def operand(index: int) -> Dataset:
                dataset = self._run_node(physical.children[index])
                inputs.append(dataset)
                span.annotate(
                    input_regions=sum(d.region_count() for d in inputs),
                    input_samples=sum(len(d) for d in inputs),
                )
                return dataset

            result = self._invoke(backend, node, operand)
            span.annotate(
                output_regions=result.region_count(),
                output_samples=len(result),
            )
        physical.span = span
        if cache is not None:
            # Stored before the rename: a hit re-applies its own name.
            cache.put(physical.fingerprint, result)
            physical.cache_entry = result
        if node.result_name:
            result = result.with_name(node.result_name)
        self._memo[id(node)] = result
        return result

    def run_physical(self, program: PhysicalProgram) -> dict:
        """Execute a physical program; returns ``{name: Dataset}``."""
        results = {}
        for output_name, node in program.outputs.items():
            results[output_name] = self._run_node(node).with_name(
                output_name
            )
        return results

    def run_program(self, compiled: CompiledProgram) -> dict:
        """Plan physically and evaluate every output; ``{name: Dataset}``."""
        physical = self.plan(compiled)
        return self.run_physical(physical)

    def plan(self, compiled: CompiledProgram) -> PhysicalProgram:
        """Lower *compiled* to a physical program for this interpreter's
        backend and source datasets (also used by EXPLAIN ANALYZE)."""
        return plan_program(
            compiled, engine=self._backend.name, datasets=self._datasets
        )
