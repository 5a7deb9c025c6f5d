"""Compile-time result-size estimation.

The federation protocol of section 4.4 wants query compilation to return
"estimates of the data sizes of results", so clients can plan staging and
communication load *before* executing.  The estimator walks a logical
plan bottom-up propagating (samples, regions-per-sample) cardinalities
with per-operator selectivity heuristics, then converts to bytes with the
same cost model as :meth:`Dataset.estimated_size_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gmql.lang.plan import (
    CoverPlan,
    DifferencePlan,
    EmptyPlan,
    ExtendPlan,
    GroupPlan,
    JoinPlan,
    MapPlan,
    MergePlan,
    OrderPlan,
    PlanNode,
    ProjectPlan,
    ScanPlan,
    SelectPlan,
    UnionPlan,
)

#: Default selectivities, deliberately coarse: the protocol's point is an
#: order-of-magnitude figure, not a query optimizer's cost model.
META_SELECT_SELECTIVITY = 0.5
REGION_SELECT_SELECTIVITY = 0.5
DIFFERENCE_SURVIVAL = 0.5
JOIN_FANOUT = 2.0
COVER_COMPRESSION = 0.5

#: Crude sustained kernel throughput used to balance shard placement --
#: calibrated against the columnar sweep/pair kernels, which chew
#: through store blocks at a few hundred MB/s on one core.  Placement
#: only needs relative magnitudes (is moving this shard cheaper than
#: queueing behind that node?), not absolute accuracy.
SHARD_COMPUTE_BYTES_PER_SECOND = 200e6

#: Network defaults matching :class:`repro.federation.transfer.Network`.
SHARD_BANDWIDTH_BYTES_PER_SECOND = 100e6 / 8
SHARD_LATENCY_SECONDS = 0.02


@dataclass(frozen=True)
class Estimate:
    """Estimated result shape."""

    samples: float
    regions: float          # total regions across samples
    attributes: int         # variable attributes per region

    def size_bytes(self) -> int:
        """Bytes under the dataset cost model (32/region + 12/value)."""
        return int(self.regions * (32 + 12 * self.attributes))


def summarize_datasets(datasets: dict) -> dict:
    """Protocol-style summaries for in-memory datasets.

    Produces the same ``{name: summary_dict}`` shape that
    :meth:`Catalog.summaries` publishes for remote data, so local
    execution (the physical planner) and federated planning share one
    estimation code path.
    """
    return {name: dataset.summary() for name, dataset in datasets.items()}


def exact_select_estimate(node: PlanNode, datasets: dict) -> Estimate | None:
    """The exact size of a metadata-only SELECT over a held dataset.

    A SELECT with a metadata predicate and neither a region predicate
    nor a semijoin, reading a scan of one of *datasets*, keeps exactly
    the samples whose metadata satisfies the predicate, with all their
    regions: so count them instead of applying
    :data:`META_SELECT_SELECTIVITY`.  ``None`` for any other node.
    """
    if not (
        isinstance(node, SelectPlan)
        and node.meta_predicate is not None
        and node.region_predicate is None
        and node.semijoin_plan is None
        and isinstance(node.child, ScanPlan)
    ):
        return None
    source = datasets.get(node.child.dataset_name)
    if source is None:
        return None
    kept = [sample for sample in source if node.meta_predicate(sample.meta)]
    return Estimate(
        samples=max(len(kept), 1),
        regions=sum(map(len, kept)),
        attributes=len(source.schema) or 1,
    )


def estimate_plan(
    node: PlanNode, catalog_summaries: dict, cache: dict | None = None
) -> Estimate:
    """Estimate one plan against ``{dataset_name: summary_dict}``.

    Summaries are what :meth:`Catalog.summaries` publishes, so estimation
    needs only protocol-level information about remote data.  Passing a
    *cache* dict memoises estimates by node identity, which keeps
    whole-plan annotation (one call per node, as the physical planner
    does) linear on shared DAGs.
    """
    if cache is not None and id(node) in cache:
        return cache[id(node)]
    estimate = _estimate_node(node, catalog_summaries, cache)
    if cache is not None:
        cache[id(node)] = estimate
    return estimate


def _estimate_node(
    node: PlanNode, catalog_summaries: dict, cache: dict | None
) -> Estimate:
    if isinstance(node, EmptyPlan):
        # Statically proven empty: exactly zero, not an estimate.
        return Estimate(0, 0, len(node.schema))
    if isinstance(node, ScanPlan):
        summary = catalog_summaries.get(node.dataset_name)
        if summary is None:
            return Estimate(1, 1_000, 1)
        return Estimate(
            samples=max(1, summary["samples"]),
            regions=max(1, summary["regions"]),
            attributes=len(summary.get("schema", ())) or 1,
        )
    if isinstance(node, SelectPlan):
        child = estimate_plan(node.child, catalog_summaries, cache)
        samples = child.samples
        regions = child.regions
        if node.meta_predicate is not None:
            samples *= META_SELECT_SELECTIVITY
            regions *= META_SELECT_SELECTIVITY
        if node.region_predicate is not None:
            regions *= REGION_SELECT_SELECTIVITY
        return Estimate(max(samples, 1), regions, child.attributes)
    if isinstance(node, (ProjectPlan,)):
        child = estimate_plan(node.child, catalog_summaries, cache)
        kept = (
            child.attributes
            if node.region_attributes is None
            else len(node.region_attributes)
        )
        return Estimate(
            child.samples, child.regions, kept + len(node.new_region_attributes)
        )
    if isinstance(node, (ExtendPlan, OrderPlan)):
        child = estimate_plan(node.child, catalog_summaries, cache)
        if isinstance(node, OrderPlan) and node.top is not None:
            fraction = min(1.0, node.top / max(child.samples, 1))
            return Estimate(
                min(child.samples, node.top),
                child.regions * fraction,
                child.attributes,
            )
        return child
    if isinstance(node, MergePlan):
        child = estimate_plan(node.child, catalog_summaries, cache)
        groups = max(1, len(node.groupby) * 3) if node.groupby else 1
        return Estimate(groups, child.regions, child.attributes)
    if isinstance(node, GroupPlan):
        child = estimate_plan(node.child, catalog_summaries, cache)
        return Estimate(child.samples, child.regions, child.attributes)
    if isinstance(node, UnionPlan):
        left = estimate_plan(node.left, catalog_summaries, cache)
        right = estimate_plan(node.right, catalog_summaries, cache)
        return Estimate(
            left.samples + right.samples,
            left.regions + right.regions,
            left.attributes + right.attributes,
        )
    if isinstance(node, DifferencePlan):
        left = estimate_plan(node.left, catalog_summaries, cache)
        return Estimate(
            left.samples, left.regions * DIFFERENCE_SURVIVAL, left.attributes
        )
    if isinstance(node, CoverPlan):
        child = estimate_plan(node.child, catalog_summaries, cache)
        return Estimate(1, child.regions * COVER_COMPRESSION, 1)
    if isinstance(node, MapPlan):
        reference = estimate_plan(node.reference, catalog_summaries, cache)
        experiment = estimate_plan(node.experiment, catalog_summaries, cache)
        ref_regions_per_sample = reference.regions / max(reference.samples, 1)
        samples = reference.samples * experiment.samples
        return Estimate(
            samples,
            samples * ref_regions_per_sample,
            reference.attributes + max(1, len(node.aggregates)),
        )
    if isinstance(node, JoinPlan):
        anchor = estimate_plan(node.anchor, catalog_summaries, cache)
        experiment = estimate_plan(node.experiment, catalog_summaries, cache)
        anchor_regions_per_sample = anchor.regions / max(anchor.samples, 1)
        samples = anchor.samples * experiment.samples
        return Estimate(
            samples,
            samples * anchor_regions_per_sample * JOIN_FANOUT,
            anchor.attributes + experiment.attributes + 1,
        )
    # Unknown node kinds: propagate the first child or a token estimate.
    if node.children:
        return estimate_plan(node.children[0], catalog_summaries, cache)
    return Estimate(1, 1_000, 1)


# -- per-shard cardinality and transfer cost (sharded cluster execution) --------


def shard_summaries(catalog_summaries: dict, chroms) -> dict:
    """Catalog summaries narrowed to the shards on *chroms*.

    Each dataset's ``regions``/``size_bytes`` are replaced by the exact
    per-chromosome figures its shard manifest publishes (see
    :meth:`repro.federation.shards.ShardManifest.summary` under the
    ``"shards"`` summary key), so :func:`estimate_plan` runs unchanged
    but produces *per-shard* cardinalities.  Datasets without a manifest
    fall back to a uniform per-chromosome split.
    """
    wanted = tuple(chroms)
    out = {}
    for name, summary in catalog_summaries.items():
        shards = (summary.get("shards") or {}).get("chroms") or {}
        if shards:
            regions = sum(
                stats[1] for chrom, stats in shards.items() if chrom in wanted
            )
            size = sum(
                stats[2] for chrom, stats in shards.items() if chrom in wanted
            )
        else:
            n_chroms = max(1, len(summary.get("chromosomes", ())) or 3)
            fraction = min(1.0, len(wanted) / n_chroms)
            regions = int(summary.get("regions", 0) * fraction)
            size = int(summary.get("size_bytes", 0) * fraction)
        out[name] = dict(summary, regions=regions, size_bytes=size)
    return out


def estimate_shard_outputs(output_plans, catalog_summaries: dict,
                           chroms) -> int:
    """Estimated partial-result bytes of a plan's outputs on one shard
    group -- what streams back from the executing node."""
    narrowed = shard_summaries(catalog_summaries, chroms)
    cache: dict = {}
    return sum(
        estimate_plan(plan, narrowed, cache).size_bytes()
        for plan in output_plans
    )


def transfer_seconds(
    payload_bytes: int,
    messages: int = 1,
    bandwidth_bytes_per_second: float = SHARD_BANDWIDTH_BYTES_PER_SECOND,
    latency_seconds: float = SHARD_LATENCY_SECONDS,
) -> float:
    """Modelled wire time of moving *payload_bytes* in *messages*."""
    return messages * latency_seconds + (
        payload_bytes / bandwidth_bytes_per_second
    )


@dataclass(frozen=True)
class ShardPlacement:
    """One placement decision: a chromosome group pinned to a node."""

    chroms: tuple            # chromosomes of the shard group
    node: str
    move_bytes: int          # source shard bytes that must ship there
    result_bytes: int        # estimated partial-result bytes shipped back
    seconds: float           # modelled transfer + compute cost

    def report(self) -> str:
        return (
            f"{'+'.join(self.chroms)} -> {self.node} "
            f"(move {self.move_bytes} B, results ~{self.result_bytes} B, "
            f"~{self.seconds * 1000:.0f} ms)"
        )


def place_shards(
    groups,
    residency: dict,
    group_bytes: dict,
    result_bytes: dict,
    nodes,
    *,
    bandwidth_bytes_per_second: float = SHARD_BANDWIDTH_BYTES_PER_SECOND,
    latency_seconds: float = SHARD_LATENCY_SECONDS,
    compute_bytes_per_second: float = SHARD_COMPUTE_BYTES_PER_SECOND,
) -> tuple:
    """Cost-based greedy placement of shard groups onto live nodes.

    Parameters
    ----------
    groups:
        Shard groups (tuples of chromosomes), the placement units.
    residency:
        ``{group: {node: resident_source_bytes}}`` -- how much of the
        group's source data each node already holds.
    group_bytes:
        ``{group: total_source_bytes}`` across all source datasets.
    result_bytes:
        ``{group: estimated_partial_result_bytes}`` (streamed back).
    nodes:
        Names of the reachable nodes, in a deterministic order.

    Heaviest groups place first (longest-processing-time); each takes
    the node minimising *modelled completion time*: data movement for
    non-resident source shards, the result stream back, the kernel time
    of the group's bytes, all queued behind work already assigned to
    that node.  Deterministic -- ties break on node order.
    """
    node_order = list(nodes)
    if not node_order:
        return ()
    load = {node: 0.0 for node in node_order}
    placements = []
    order = sorted(groups, key=lambda g: (-group_bytes.get(g, 0), g))
    for group in order:
        resident = residency.get(group, {})
        total = group_bytes.get(group, 0)
        results = result_bytes.get(group, 0)
        best = None
        for node in node_order:
            move = max(0, total - resident.get(node, 0))
            seconds = (
                transfer_seconds(
                    move + results,
                    messages=2 if move else 1,
                    bandwidth_bytes_per_second=bandwidth_bytes_per_second,
                    latency_seconds=latency_seconds,
                )
                + total / compute_bytes_per_second
            )
            completion = load[node] + seconds
            if best is None or completion < best[0]:
                best = (completion, node, move, results, seconds)
        completion, node, move, results, seconds = best
        load[node] = completion
        placements.append(
            ShardPlacement(
                chroms=tuple(group),
                node=node,
                move_bytes=move,
                result_bytes=results,
                seconds=seconds,
            )
        )
    return tuple(placements)
