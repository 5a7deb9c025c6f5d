"""Unit tests for the shard manifest, slicing and placement layers."""

import pytest

from repro.federation import (
    ShardPlacement,
    dataset_manifest,
    estimate_shard_outputs,
    is_chromosome_clustered,
    parse_staged_sections,
    partition_chromosomes,
    place_shards,
    shard_summaries,
    slice_dataset,
    transfer_seconds,
)
from repro.gdm import (
    Dataset,
    FLOAT,
    Metadata,
    RegionSchema,
    Sample,
    chromosome_sort_key,
    region,
)
from repro.gdm.sample import rows_materialised
from repro.repository.staging import _serialise_sections


def make_dataset(name="PEAKS", chrom_counts=None, samples=2) -> Dataset:
    """A chromosome-clustered dataset with the given per-chrom counts."""
    chrom_counts = chrom_counts or {"chr1": 4, "chr2": 2, "chr3": 3}
    ds = Dataset(name, RegionSchema.of(("score", FLOAT)))
    for sid in range(1, samples + 1):
        regions = []
        for chrom in sorted(chrom_counts, key=chromosome_sort_key):
            for i in range(chrom_counts[chrom]):
                start = 100 * (i + 1) * sid
                regions.append(
                    region(chrom, start, start + 50, "*", float(i))
                )
        ds.add_sample(Sample(sid, regions, Metadata({"s": str(sid)})))
    return ds


class TestManifest:
    def test_one_shard_per_sample_chromosome(self):
        ds = make_dataset(chrom_counts={"chr1": 4, "chr2": 2}, samples=3)
        manifest = dataset_manifest(ds)
        assert manifest.clustered is True
        assert len(manifest.shards) == 6  # 3 samples x 2 chroms
        keys = {(s.sample_id, s.chrom) for s in manifest.shards}
        assert len(keys) == 6

    def test_chrom_stats_aggregates_regions_and_bytes(self):
        ds = make_dataset(chrom_counts={"chr1": 4, "chr2": 2}, samples=2)
        stats = dataset_manifest(ds).chrom_stats()
        assert stats["chr1"][0] == 2          # shard count
        assert stats["chr1"][1] == 8          # regions over both samples
        assert stats["chr1"][2] > stats["chr2"][2]

    def test_summary_published_in_dataset_summary(self):
        ds = make_dataset()
        shards = ds.summary()["shards"]
        assert shards["clustered"] is True
        assert set(shards["chroms"]) == {"chr1", "chr2", "chr3"}


class TestClustering:
    def test_genome_ordered_dataset_is_clustered(self):
        assert is_chromosome_clustered(make_dataset()) is True

    def test_interleaved_chromosomes_are_not(self):
        ds = Dataset("BAD", RegionSchema())
        ds.add_sample(Sample(1, [
            region("chr1", 0, 10),
            region("chr2", 0, 10),
            region("chr1", 20, 30),   # chr1 resumes: two runs
        ], Metadata({})))
        assert is_chromosome_clustered(ds) is False
        assert dataset_manifest(ds).clustered is False

    def test_staged_partials_are_checked_from_their_columns(self):
        partial = parse_staged_sections(
            *_serialise_sections(make_dataset()), "PEAKS"
        )
        before = rows_materialised()
        assert is_chromosome_clustered(partial) is True
        assert rows_materialised() == before


class TestSlicing:
    def test_slice_keeps_only_wanted_chromosomes(self):
        ds = make_dataset()
        sliced = slice_dataset(ds, ("chr1", "chr3"))
        assert set(sliced.chromosomes()) == {"chr1", "chr3"}
        for sample in sliced:
            assert all(r.chrom != "chr2" for r in sample.regions)

    def test_slice_keeps_all_samples_even_when_region_empty(self):
        # Sample alignment: MAP/COVER outputs depend on the sample list.
        ds = make_dataset(samples=3)
        sliced = slice_dataset(ds, ("chrX",))
        assert len(list(sliced)) == 3
        assert sliced.summary()["regions"] == 0

    def test_slices_reassemble_to_the_original_rows(self):
        ds = make_dataset()
        parts = [slice_dataset(ds, (c,)) for c in ds.chromosomes()]
        rebuilt = []
        for sid in (1, 2):
            rows = []
            for part in parts:
                sample = {s.id: s for s in part}[sid]
                rows.extend(sample.regions)
            rebuilt.append(rows)
        originals = [list(s.regions) for s in ds]
        assert rebuilt == originals


class TestPartitioning:
    def test_partition_balances_weights(self):
        weights = {"chr1": 100, "chr2": 60, "chr3": 50, "chr4": 10}
        groups = partition_chromosomes(weights, 2)
        assert len(groups) == 2
        totals = sorted(
            sum(weights[c] for c in group) for group in groups
        )
        assert totals[1] - totals[0] <= 100  # LPT keeps the gap < max item

    def test_every_chromosome_lands_exactly_once(self):
        weights = {f"chr{i}": i for i in range(1, 9)}
        groups = partition_chromosomes(weights, 3)
        seen = [c for group in groups for c in group]
        assert sorted(seen) == sorted(weights)

    def test_more_groups_than_chromosomes_collapses(self):
        groups = partition_chromosomes({"chr1": 5, "chr2": 3}, 10)
        assert len(groups) == 2


class TestPlacementCost:
    def test_transfer_seconds_charges_latency_per_message(self):
        assert transfer_seconds(0, messages=2) == pytest.approx(
            2 * transfer_seconds(0, messages=1)
        )

    def test_placement_prefers_the_resident_node(self):
        placements = place_shards(
            (("chr1",),),
            {("chr1",): {"owner": 10_000, "other": 0}},
            {("chr1",): 10_000},
            {("chr1",): 1_000},
            ("owner", "other"),
        )
        by_group = {p.chroms: p for p in placements}
        assert by_group[("chr1",)].node == "owner"
        assert by_group[("chr1",)].move_bytes == 0

    def test_placement_spreads_groups_across_nodes(self):
        groups = (("chr1",), ("chr2",), ("chr3",), ("chr4",))
        residency = {g: {"a": 0, "b": 0} for g in groups}
        group_bytes = {g: 50_000 for g in groups}
        result_bytes = {g: 5_000 for g in groups}
        placements = place_shards(
            groups, residency, group_bytes, result_bytes, ("a", "b")
        )
        nodes = {p.node for p in placements}
        assert nodes == {"a", "b"}

    def test_placements_carry_modelled_seconds(self):
        placements = place_shards(
            (("chr1",),),
            {("chr1",): {"a": 0}},
            {("chr1",): 80_000},
            {("chr1",): 8_000},
            ("a",),
        )
        placement = placements[0]
        assert isinstance(placement, ShardPlacement)
        assert placement.seconds > 0
        assert placement.move_bytes == 80_000


class TestShardEstimates:
    def test_shard_summaries_narrow_to_the_group(self):
        ds = make_dataset()
        summaries = {"PEAKS": ds.summary()}
        narrowed = shard_summaries(summaries, ("chr1",))
        assert narrowed["PEAKS"]["regions"] < summaries["PEAKS"]["regions"]

    def test_estimated_output_scales_with_group_size(self):
        from repro.gmql.lang import compile_program, optimize

        ds = make_dataset()
        summaries = {"PEAKS": ds.summary()}
        plans = list(optimize(compile_program(
            "R = SELECT() PEAKS; MATERIALIZE R;"
        )).outputs.values())
        small = estimate_shard_outputs(plans, summaries, ("chr2",))
        large = estimate_shard_outputs(
            plans, summaries, ("chr1", "chr2", "chr3")
        )
        assert 0 < small < large
