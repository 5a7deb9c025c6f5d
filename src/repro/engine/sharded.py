"""The ``sharded`` backend: chromosome-sharded kernel execution.

The single-process face of sharded cluster execution
(:mod:`repro.federation.shards`): genometric operators split their
operand datasets into chromosome-group shards, run the columnar kernels
per group, and interleave the partials with the same
:func:`~repro.federation.merge.merge_partials` the federated client
uses -- so the merge path that must be byte-identical to single-node
execution is exercised locally on every run, with no processes or
network involved.

The group count is the constructor's ``groups``; without one every
chromosome is its own group (``--engine sharded``).  Which kernels
shard is decided by the inferred effect annotations
(:mod:`repro.gmql.lang.effects`): chromosome-local region-matching
operators shard, while cross-chromosome aggregation (EXTEND/MERGE/
ORDER/GROUP) and per-sample bookkeeping operators delegate to the
inner backend unchanged.
"""

from __future__ import annotations

from repro.engine.base import Backend
from repro.gdm import chromosome_sort_key


class ShardedBackend(Backend):
    """Chromosome-group sharding over an inner columnar backend."""

    name = "sharded"

    def __init__(self, groups: int | None = None) -> None:
        super().__init__()
        self._groups = groups
        self._inner = None

    def inner(self) -> Backend:
        """The delegate kernel backend (lazily built, shares the context)."""
        if self._inner is None:
            from repro.engine.dispatch import get_backend

            backend = get_backend("columnar")
            if self._context is not None:
                backend.bind_context(self._context)
            self._inner = backend
        return self._inner

    def bind_context(self, context):
        super().bind_context(context)
        if self._inner is not None:
            self._inner.bind_context(context)
        return self

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()

    # -- sharding ----------------------------------------------------------------

    def _split(self, *datasets) -> tuple | None:
        """Chromosome groups shared by the operand datasets, or ``None``.

        ``None`` -- run unsharded -- when any operand is not
        chromosome-clustered or holds two chromosome names whose sort
        keys tie (either way merge order would not be reproducible), or
        when fewer than two non-empty groups exist (sharding would only
        add overhead).
        """
        from repro.federation.shards import (
            chromosome_names_tie,
            is_chromosome_clustered,
            partition_chromosomes,
        )

        group_count = self._groups
        if group_count is not None and group_count < 2:
            return None
        weights: dict = {}
        for dataset in datasets:
            if dataset is None:
                continue
            if not is_chromosome_clustered(dataset):
                return None
            for sample in dataset:
                for region in sample.regions:
                    weights[region.chrom] = weights.get(region.chrom, 0) + 1
        if len(weights) < 2 or chromosome_names_tie(weights):
            return None
        if group_count is None:
            # Explicit ``--engine sharded`` with no configured count:
            # finest granularity, one group per chromosome.
            group_count = len(weights)
        groups = partition_chromosomes(weights, group_count)
        return groups if len(groups) >= 2 else None

    def _sharded(self, kernel: str, plan, *datasets):
        """Run one kernel per chromosome group and merge the partials.

        The gate is the node's inferred effect record, not an operator
        allowlist: only chromosome-local kernels doing per-region
        matching work shard; everything else (cross-chromosome
        aggregation, cheap bookkeeping) delegates to the inner backend
        unchanged.
        """
        from repro.federation.merge import merge_partials
        from repro.federation.shards import slice_dataset
        from repro.gmql.lang.effects import (
            SHARD_WORTHWHILE_KINDS,
            node_effects,
        )

        run = getattr(self.inner(), f"run_{kernel}")
        if (
            plan.kind not in SHARD_WORTHWHILE_KINDS
            or not node_effects(plan).chrom_local
        ):
            return run(plan, *datasets)
        groups = self._split(*datasets)
        if groups is None:
            return run(plan, *datasets)
        partials = []
        for group in sorted(groups, key=lambda g: chromosome_sort_key(g[0])):
            operands = tuple(
                None if dataset is None else slice_dataset(dataset, group)
                for dataset in datasets
            )
            partials.append(run(plan, *operands))
        if self._context is not None:
            self._context.metrics.increment(
                "federation.shards_placed", len(partials)
            )
        return merge_partials(partials)

    # -- operator kernels ---------------------------------------------------------

    def run_select(self, plan, child, semijoin_data):
        return self._sharded("select", plan, child, semijoin_data)

    def run_project(self, plan, child):
        return self._sharded("project", plan, child)

    def run_extend(self, plan, child):
        return self._sharded("extend", plan, child)

    def run_merge(self, plan, child):
        return self._sharded("merge", plan, child)

    def run_group(self, plan, child):
        return self._sharded("group", plan, child)

    def run_order(self, plan, child):
        return self._sharded("order", plan, child)

    def run_union(self, plan, left, right):
        return self._sharded("union", plan, left, right)

    def run_difference(self, plan, left, right):
        return self._sharded("difference", plan, left, right)

    def run_cover(self, plan, child):
        return self._sharded("cover", plan, child)

    def run_map(self, plan, reference, experiment):
        return self._sharded("map", plan, reference, experiment)

    def run_join(self, plan, anchor, experiment):
        return self._sharded("join", plan, anchor, experiment)
