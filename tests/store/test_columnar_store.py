"""Unit tests for the columnar store: blocks, zone maps, digests."""

import numpy as np
import pytest

from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.gdm.schema import AttributeDef, FLOAT
from repro.intervals import DEFAULT_BIN_SIZE
from repro.store import (
    DatasetStore,
    SampleBlocks,
    count_overlaps_blocks,
    occupied_bins,
    store_counters,
)


def region(chrom, left, right, strand="*", *values):
    return GenomicRegion(chrom, left, right, strand, tuple(values))


def dataset(name="D", samples=None, schema=None):
    return Dataset(
        name,
        schema or RegionSchema.empty(),
        samples or (),
        validate=False,
    )


class TestOccupiedBins:
    def test_single_bin(self):
        bins = occupied_bins(np.array([10]), np.array([20]), 100)
        assert bins.tolist() == [0]

    def test_spanning_region_includes_middle_bins(self):
        # [50, 450) with bin 100 touches bins 0..4 -- including middle
        # bins 1..3, which is what keeps pruning sound for regions that
        # fully contain a bin.
        bins = occupied_bins(np.array([50]), np.array([450]), 100)
        assert bins.tolist() == [0, 1, 2, 3, 4]

    def test_region_ending_on_bin_edge(self):
        # [0, 100) ends exactly at the edge: bin 0 only.
        bins = occupied_bins(np.array([0]), np.array([100]), 100)
        assert bins.tolist() == [0]

    def test_zero_length_occupies_point_bin(self):
        bins = occupied_bins(np.array([150]), np.array([150]), 100)
        assert bins.tolist() == [1]

    def test_empty(self):
        assert occupied_bins(np.array([]), np.array([]), 100).size == 0

    def test_matches_bin_span(self):
        from repro.intervals.bins import bin_span

        rng = np.random.default_rng(7)
        starts = rng.integers(0, 5000, size=50)
        widths = rng.integers(0, 600, size=50)
        stops = starts + widths
        expected = sorted(
            {
                index
                for left, right in zip(starts, stops)
                for index in bin_span(int(left), int(right), 128)
            }
        )
        assert occupied_bins(starts, stops, 128).tolist() == expected


class TestSampleBlocks:
    def test_struct_of_arrays_layout(self):
        sample = Sample(
            1,
            [
                region("chr2", 30, 60),
                region("chr1", 100, 200),
                region("chr1", 50, 80),
            ],
            Metadata({}),
        )
        blocks = SampleBlocks(1, sample.regions, 100)
        assert blocks.n_regions == 3
        chr1 = blocks.block("chr1")
        assert chr1.starts.tolist() == [100, 50]
        assert chr1.stops.tolist() == [200, 80]
        # index maps back into the sample's region order.
        assert chr1.index.tolist() == [1, 2]
        assert blocks.block("chr2").index.tolist() == [0]

    def test_sorted_views_and_max_width(self):
        blocks = SampleBlocks(
            1, [region("chr1", 100, 350), region("chr1", 20, 60)], 100
        )
        block = blocks.block("chr1")
        assert block.sorted_starts.tolist() == [20, 100]
        assert block.sorted_stops.tolist() == [60, 350]
        assert block.max_width == 250

    def test_zone_map_entries(self):
        blocks = SampleBlocks(
            1,
            [region("chr1", 50, 450), region("chr7", 10, 20)],
            100,
        )
        entry = blocks.zone_map.entry("chr1")
        assert (entry.min_start, entry.max_stop) == (50, 450)
        assert entry.partitions == 5
        assert blocks.zone_map.entry("chrX") is None

    def test_window_overlaps_point_feature(self):
        blocks = SampleBlocks(1, [region("chr1", 100, 100)], 100)
        entry = blocks.zone_map.entry("chr1")
        # A zero-length point at 100 is a candidate for [60, 140).
        assert entry.window_overlaps(60, 140)
        assert not entry.window_overlaps(100, 200)


class TestCountOverlapsBlocks:
    def test_counts_and_pruning(self):
        ref = SampleBlocks(
            1,
            [
                region("chr1", 10, 50),
                region("chr1", 200, 260),
                region("chr9", 0, 40),
            ],
            100,
        )
        probe = SampleBlocks(
            2, [region("chr1", 30, 40), region("chr1", 45, 220)], 100
        )
        counts, pruned = count_overlaps_blocks(ref, probe)
        assert counts.tolist() == [2, 1, 0]
        # chr9 has no probe entry: its single partition is pruned.
        assert pruned == 1

    def test_bin_level_pruning_keeps_counts_exact(self):
        # Far-apart clusters on one chromosome: bins prune, counts stay.
        ref = SampleBlocks(
            1,
            [region("chr1", 100, 150), region("chr1", 100_000_000, 100_000_050)],
            100,
        )
        probe = SampleBlocks(2, [region("chr1", 120, 130)], 100)
        counts, pruned = count_overlaps_blocks(ref, probe)
        assert counts.tolist() == [1, 0]
        assert pruned >= 1

    def test_zero_length_probe_matches_region_semantics(self):
        # Half-open overlap: a point feature overlaps intervals strictly
        # containing its position, but not ones that merely touch it.
        ref = SampleBlocks(1, [region("chr1", 0, 100)], 100)
        inside = SampleBlocks(2, [region("chr1", 50, 50)], 100)
        counts, __ = count_overlaps_blocks(ref, inside)
        assert counts.tolist() == [1]
        at_edge = SampleBlocks(3, [region("chr1", 100, 100)], 100)
        counts, __ = count_overlaps_blocks(ref, at_edge)
        assert counts.tolist() == [0]


class TestDatasetStore:
    def make(self):
        return dataset(
            samples=[
                Sample(1, [region("chr1", 0, 50)], Metadata({"cell": "A"})),
                Sample(2, [region("chr2", 10, 90)], Metadata({"cell": "B"})),
            ]
        )

    def test_blocks_memoised_per_sample(self):
        ds = self.make()
        store = ds.store()
        built = store_counters()["blocks_built"]
        first = store.blocks(ds[1])
        again = store.blocks(ds[1])
        assert first is again
        assert store_counters()["blocks_built"] - built == 1

    def test_store_memoised_on_dataset(self):
        ds = self.make()
        assert ds.store() is ds.store()
        assert ds.store(50) is not ds.store()

    def test_default_and_explicit_default_bin_size_share_one_store(self):
        ds = self.make()
        implicit = ds.store()
        assert ds.store(DEFAULT_BIN_SIZE) is implicit
        assert ds.store(0) is implicit

    def test_add_sample_invalidates_store(self):
        ds = self.make()
        before = ds.store()
        ds.add_sample(Sample(3, [region("chr3", 0, 10)], Metadata({})))
        after = ds.store()
        assert after is not before
        assert "chr3" in after.zone_map().chromosomes

    def test_digest_stable_and_name_independent(self):
        ds = self.make()
        clone = self.make()
        assert ds.store().digest() == clone.store().digest()
        renamed = ds.with_name("OTHER")
        assert renamed.store().digest() == ds.store().digest()

    def test_digest_changes_with_content(self):
        ds = self.make()
        base = ds.store().digest()
        # Region coordinates.
        moved = dataset(
            samples=[
                Sample(1, [region("chr1", 0, 51)], Metadata({"cell": "A"})),
                Sample(2, [region("chr2", 10, 90)], Metadata({"cell": "B"})),
            ]
        )
        assert moved.store().digest() != base
        # Metadata.
        relabelled = dataset(
            samples=[
                Sample(1, [region("chr1", 0, 50)], Metadata({"cell": "Z"})),
                Sample(2, [region("chr2", 10, 90)], Metadata({"cell": "B"})),
            ]
        )
        assert relabelled.store().digest() != base
        # Strand.
        stranded = dataset(
            samples=[
                Sample(1, [region("chr1", 0, 50, "+")], Metadata({"cell": "A"})),
                Sample(2, [region("chr2", 10, 90)], Metadata({"cell": "B"})),
            ]
        )
        assert stranded.store().digest() != base

    def test_digest_sees_values(self):
        schema = RegionSchema((AttributeDef("score", FLOAT),))
        one = dataset(
            samples=[Sample(1, [region("chr1", 0, 10, "*", 1.0)], Metadata({}))],
            schema=schema,
        )
        two = dataset(
            samples=[Sample(1, [region("chr1", 0, 10, "*", 2.0)], Metadata({}))],
            schema=schema,
        )
        assert one.store().digest() != two.store().digest()

    def test_union_blocks_cover_all_samples(self):
        ds = self.make()
        union = ds.store().union_blocks()
        assert union.n_regions == 2
        assert set(union.zone_map.chromosomes) == {"chr1", "chr2"}

    def test_partitions(self):
        ds = self.make()
        assert ds.store().partitions() == 2

    def test_custom_bin_size(self):
        ds = dataset(
            samples=[Sample(1, [region("chr1", 0, 1000)], Metadata({}))]
        )
        coarse = DatasetStore(ds, bin_size=1000)
        fine = DatasetStore(ds, bin_size=10)
        assert coarse.partitions() == 1
        assert fine.partitions() == 100
