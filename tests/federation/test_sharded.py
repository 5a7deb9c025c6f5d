"""Sharded cluster execution over an in-process 3-node federation.

The acceptance bar: a dataset partitioned into (sample, chromosome)
shards across three nodes, executed with pushed sub-plans and streamed
partials, must merge **byte-identically** to a single-node columnar run
-- and node death mid-shard must degrade to exactly the surviving
shards, never to wrong rows.
"""

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.dispatch import get_backend
from repro.errors import FederationError
from repro.federation import (
    FederatedClient,
    FederationNode,
    Network,
    dataset_manifest,
    partition_chromosomes,
    slice_dataset,
)
from repro.federation.shards import chromosome_names_tie
from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.repository import Catalog
from repro.resilience import FaultInjector
from repro.simulate import CancerScenario

CHAOS_SEED = 7

PROGRAM = """
BREAKS_IN_GENES = MAP(breaks AS COUNT) EXPRESSION BREAKPOINTS;
WITH_MUTS = MAP(mutations AS COUNT) BREAKS_IN_GENES MUTATIONS;
MATERIALIZE WITH_MUTS;
"""


def scenario_datasets() -> dict:
    scenario = CancerScenario.generate(seed=5)
    return {
        "EXPRESSION": scenario.expression,
        "BREAKPOINTS": scenario.breakpoints,
        "MUTATIONS": scenario.mutations,
    }


def sharded_federation(spec="", context=None, node_count=3):
    """Three nodes, each owning one chromosome group of every dataset."""
    datasets = scenario_datasets()
    injector = FaultInjector.from_spec(spec) if spec else None
    network = Network(injector=injector)
    weights: dict = {}
    for ds in datasets.values():
        for chrom, stats in dataset_manifest(ds).chrom_stats().items():
            weights[chrom] = weights.get(chrom, 0) + stats[2]
    groups = partition_chromosomes(weights, node_count)
    nodes = []
    for index in range(node_count):
        catalog = Catalog(f"n{index}")
        group = groups[index] if index < len(groups) else ()
        for ds in datasets.values():
            catalog.register(slice_dataset(ds, group))
        nodes.append(FederationNode(f"n{index}", catalog, network))
    client = FederatedClient(
        nodes, network, seed=CHAOS_SEED, context=context
    )
    return client, datasets, groups, injector


def single_node_run(datasets: dict, program: str = PROGRAM) -> dict:
    backend = get_backend("columnar")
    try:
        return Interpreter(backend, dict(datasets)).run_program(
            optimize(compile_program(program))
        )
    finally:
        backend.close()


def rows(dataset) -> list:
    return list(dataset.region_rows())


class TestShardedIdentity:
    def test_merged_result_is_byte_identical_to_single_node(self):
        client, datasets, __, __i = sharded_federation()
        outcome = client.run_sharded(PROGRAM)
        baseline = single_node_run(datasets)
        assert outcome.strategy == "sharded"
        assert outcome.degraded is False
        merged = outcome.datasets["WITH_MUTS"]
        assert rows(merged) == rows(baseline["WITH_MUTS"])
        assert sorted(merged.metadata_triples()) == sorted(
            baseline["WITH_MUTS"].metadata_triples()
        )

    def test_execution_spans_multiple_nodes(self):
        client, __, groups, __i = sharded_federation()
        outcome = client.run_sharded(PROGRAM)
        assert len(groups) == 3
        assert len(outcome.executing_node.split(",")) > 1
        assert len(outcome.node_seconds) > 1
        assert outcome.cluster_seconds() > 0
        assert outcome.cluster_seconds() <= sum(
            outcome.node_seconds.values()
        ) + outcome.merge_seconds + 1e-9

    def test_max_shards_caps_groups_and_keeps_identity(self):
        client, datasets, __, __i = sharded_federation()
        outcome = client.run_sharded(PROGRAM, max_shards=2)
        baseline = single_node_run(datasets)
        assert outcome.degraded is False
        assert rows(outcome.datasets["WITH_MUTS"]) == rows(
            baseline["WITH_MUTS"]
        )

    def test_metrics_flow_through_the_execution_context(self):
        context = ExecutionContext()
        client, __, __g, __i = sharded_federation(context=context)
        client.run_sharded(PROGRAM)
        assert context.metrics.counter("federation.shards_placed") > 0
        assert context.metrics.counter("federation.shards_skipped") == 0
        # No shared store root in this fixture: partials stream back.
        assert context.metrics.counter("federation.bytes_streamed") > 0
        assert context.metrics.counter("federation.bytes_mapped") == 0

    def test_cover_and_join_shard_identically(self):
        program = """
            HOT = COVER(2, ANY) BREAKPOINTS;
            NEAR = JOIN(MD(1); output: LEFT) EXPRESSION MUTATIONS;
            MATERIALIZE HOT;
            MATERIALIZE NEAR;
        """
        client, datasets, __, __i = sharded_federation()
        outcome = client.run_sharded(program)
        baseline = single_node_run(datasets, program)
        for name in ("HOT", "NEAR"):
            assert rows(outcome.datasets[name]) == rows(baseline[name])


def _tied_names_dataset(name: str, offset: int) -> Dataset:
    """Clustered samples over ``chr01``, ``chr1`` (sort keys tie) and
    ``chr2``, with ``chr01``/``chr1`` regions interleaving by position."""
    def region(chrom, left, right):
        return GenomicRegion(chrom, left, right, "*", ())

    samples = []
    for sample_id in (1, 2):
        regions = (
            [region("chr01", offset + 10 * i + sample_id,
                    offset + 10 * i + 50 + sample_id) for i in range(4)]
            + [region("chr1", offset + 10 * i + 5, offset + 10 * i + 30)
               for i in range(4)]
            + [region("chr2", offset + 7 * i, offset + 7 * i + 20)
               for i in range(3)]
        )
        samples.append(Sample(sample_id, regions, Metadata({"s": "x"})))
    return Dataset(name, RegionSchema.empty(), samples)


class TestTiedChromosomeNames:
    """Names whose sort keys tie are never split across shard groups:
    columnar interleaves ``chr01``/``chr1`` rows by position, so merging
    them as separate per-chromosome runs would group them instead."""

    @pytest.mark.parametrize("program", [
        "X = MAP(n AS COUNT) A B; MATERIALIZE X;",
        "X = JOIN(DLE(100); output: LEFT) A B; MATERIALIZE X;",
        "X = COVER(1, ANY) A; MATERIALIZE X;",
    ], ids=["map", "join", "cover"])
    def test_sharded_run_matches_columnar(self, program):
        datasets = {
            "A": _tied_names_dataset("A", 0),
            "B": _tied_names_dataset("B", 3),
        }
        network = Network()
        nodes = []
        for index, group in enumerate((("chr01", "chr2"), ("chr1",))):
            catalog = Catalog(f"n{index}")
            for dataset in datasets.values():
                catalog.register(slice_dataset(dataset, group))
            nodes.append(FederationNode(f"n{index}", catalog, network))
        outcome = FederatedClient(nodes, network).run_sharded(program)
        baseline = single_node_run(datasets, program)
        assert outcome.strategy == "sharded"
        assert outcome.degraded is False
        assert rows(outcome.datasets["X"]) == rows(baseline["X"])

    def test_repeated_runs_do_not_double_shipped_shards(self):
        """The planner re-ships missing shards on every run; a node
        must replace, not add to, the slices it already holds."""
        datasets = {
            "A": _tied_names_dataset("A", 0),
            "B": _tied_names_dataset("B", 3),
        }
        network = Network()
        nodes = []
        for index, group in enumerate((("chr01", "chr2"), ("chr1",))):
            catalog = Catalog(f"n{index}")
            for dataset in datasets.values():
                catalog.register(slice_dataset(dataset, group))
            nodes.append(FederationNode(f"n{index}", catalog, network))
        client = FederatedClient(nodes, network)
        program = "X = JOIN(DLE(100); output: LEFT) A B; MATERIALIZE X;"
        expected = rows(single_node_run(datasets, program)["X"])
        for __ in range(2):
            assert rows(client.run_sharded(program).datasets["X"]) == expected

    def test_tie_predicate(self):
        assert chromosome_names_tie(["chr1", "chr01", "chr2"])
        assert not chromosome_names_tie(["chr1", "chr2", "chrX"])
        assert not chromosome_names_tie(["chr1", "chr1"])


class TestDegradedSharding:
    """Satellite: node death mid-shard degrades to the surviving shards."""

    SPEC = f"seed={CHAOS_SEED};crash@federation.execute:n1"

    def test_dead_node_degrades_to_surviving_shards(self):
        context = ExecutionContext()
        client, datasets, groups, __ = sharded_federation(
            self.SPEC, context=context
        )
        outcome = client.run_sharded(PROGRAM)
        assert outcome.degraded is True
        assert outcome.skipped_shards
        dead_chroms = {
            chrom
            for group_label, __r in outcome.skipped_shards
            for chrom in group_label.split("+")
        }
        # n1's chromosome group is exactly what went missing.
        assert dead_chroms == set(groups[1])
        assert "skipped shard(s)" in outcome.report()
        assert context.metrics.counter("federation.shards_skipped") > 0
        # The merged result is the single-node answer minus the dead
        # node's chromosomes -- surviving rows are never recomputed,
        # reordered or approximated.
        baseline = single_node_run(datasets)
        expected = [
            row for row in rows(baseline["WITH_MUTS"])
            if row[1] not in dead_chroms
        ]
        assert rows(outcome.datasets["WITH_MUTS"]) == expected

    def test_all_nodes_dead_raises_not_empty(self):
        client, __, __g, __i = sharded_federation(
            f"seed={CHAOS_SEED};crash@federation.execute:n*"
        )
        with pytest.raises(FederationError, match="no usable node"):
            client.run_sharded(PROGRAM)


class TestChunkIntegrity:
    """Satellite: a corrupted partial chunk is detected and re-fetched."""

    SPEC = f"seed={CHAOS_SEED};corrupt@federation.transfer:*?times=1"

    def test_corrupt_chunk_is_refetched_and_result_identical(self):
        client, datasets, __, injector = sharded_federation(self.SPEC)
        outcome = client.run_sharded(PROGRAM)
        assert injector.injected_by_kind().get("corrupt") == 1
        assert outcome.degraded is False
        baseline = single_node_run(datasets)
        assert rows(outcome.datasets["WITH_MUTS"]) == rows(
            baseline["WITH_MUTS"]
        )


class TestMixedOutputs:
    """One EXTEND output must not sink the shardable outputs: the
    planner's per-output rounds shard the chromosome-local outputs and
    run the global one whole-genome, byte-identically to single-node."""

    PROGRAM = """
        HOT = COVER(2, ANY) BREAKPOINTS;
        NEAR = MAP(hits AS COUNT) EXPRESSION MUTATIONS;
        STATS = EXTEND(n AS COUNT) EXPRESSION;
        MATERIALIZE HOT;
        MATERIALIZE NEAR;
        MATERIALIZE STATS;
    """

    def test_local_outputs_shard_despite_global_sibling(self):
        client, datasets, __, __i = sharded_federation()
        outcome = client.run_sharded(self.PROGRAM)
        baseline = single_node_run(datasets, self.PROGRAM)
        assert outcome.strategy == "sharded"
        assert outcome.degraded is False
        # The local outputs' round really spanned the cluster.
        assert len(outcome.executing_node.split(",")) > 1
        for name in ("HOT", "NEAR", "STATS"):
            assert rows(outcome.datasets[name]) == rows(baseline[name])
            assert sorted(outcome.datasets[name].metadata_triples()) == (
                sorted(baseline[name].metadata_triples())
            )

    def test_effect_annotations_gate_each_output(self):
        compiled = optimize(compile_program(self.PROGRAM))
        from repro.gmql.lang.effects import annotate_effects

        annotate_effects(compiled)
        assert compiled.outputs["HOT"].effects.chrom_local is True
        assert compiled.outputs["NEAR"].effects.chrom_local is True
        stats = compiled.outputs["STATS"].effects
        assert stats.chrom_local is False
        assert "EXTEND" in stats.locality_breaker


class TestFallbacks:
    def test_cross_chromosome_aggregation_falls_back(self):
        # EXTEND aggregates across chromosomes; fsum-of-fsums is not
        # fsum, so the plan must not shard.  In-process nodes hold
        # catalogs, so the whole-dataset planner takes over.
        datasets = scenario_datasets()
        network = Network()
        catalog = Catalog("solo")
        for ds in datasets.values():
            catalog.register(ds)
        client = FederatedClient(
            [FederationNode("solo", catalog, network)], network
        )
        program = """
            E = EXTEND(n AS COUNT) EXPRESSION;
            MATERIALIZE E;
        """
        outcome = client.run_sharded(program)
        assert outcome.strategy != "sharded"
        assert outcome.results
