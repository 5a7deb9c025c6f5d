"""Unit tests for Sample and Dataset invariants."""

import pytest

from repro.errors import DatasetError, SchemaError
from repro.gdm import (
    Dataset,
    FLOAT,
    INT,
    Metadata,
    RegionSchema,
    Sample,
    region,
    renumber,
)


@pytest.fixture()
def schema():
    return RegionSchema.of(("score", FLOAT))


class TestSample:
    def test_len_and_iter(self):
        s = Sample(1, [region("chr1", 0, 5), region("chr2", 0, 5)])
        assert len(s) == 2
        assert [r.chrom for r in s] == ["chr1", "chr2"]

    def test_negative_id_rejected(self):
        with pytest.raises(DatasetError):
            Sample(-1)

    def test_chromosomes_sorted(self):
        s = Sample(1, [region("chr2", 0, 5), region("chr1", 0, 5)])
        assert s.chromosomes() == ("chr1", "chr2")

    def test_sorted_regions_and_is_sorted(self):
        s = Sample(1, [region("chr1", 50, 60), region("chr1", 0, 10)])
        assert not s.is_sorted()
        assert [r.left for r in s.sorted_regions()] == [0, 50]

    def test_covered_positions_merges_overlaps(self):
        s = Sample(1, [region("chr1", 0, 10), region("chr1", 5, 15)])
        assert s.covered_positions() == 15

    def test_covered_positions_across_chromosomes(self):
        s = Sample(1, [region("chr1", 0, 10), region("chr2", 0, 10)])
        assert s.covered_positions() == 20

    def test_filter_and_map_regions(self):
        s = Sample(1, [region("chr1", 0, 5), region("chr1", 10, 20)])
        assert len(s.filter_regions(lambda r: r.length > 5)) == 1
        widened = s.map_regions(lambda r: r.with_coordinates(r.left, r.right + 1))
        assert [r.right for r in widened] == [6, 21]

    def test_with_id_shares_regions(self):
        s = Sample(1, [region("chr1", 0, 5)])
        assert s.with_id(9).id == 9
        assert s.with_id(9).regions == s.regions

    def test_renumber(self):
        samples = renumber([Sample(10), Sample(20)], start=1)
        assert [s.id for s in samples] == [1, 2]


class TestDataset:
    def test_schema_coercion_on_add(self, schema):
        ds = Dataset("D", schema, [Sample(1, [region("chr1", 0, 5, "*", "0.5")])])
        assert ds[1].regions[0].values == (0.5,)

    def test_short_value_tuples_padded(self, schema):
        ds = Dataset("D", schema, [Sample(1, [region("chr1", 0, 5)])])
        assert ds[1].regions[0].values == (None,)

    def test_uncoercible_value_raises(self, schema):
        with pytest.raises(SchemaError):
            Dataset("D", schema, [Sample(1, [region("chr1", 0, 5, "*", "abc")])])

    def test_duplicate_id_rejected(self, schema):
        with pytest.raises(DatasetError):
            Dataset("D", schema, [Sample(1), Sample(1)])

    def test_missing_sample_raises(self, schema):
        ds = Dataset("D", schema)
        with pytest.raises(DatasetError):
            ds[42]

    def test_empty_name_rejected(self, schema):
        with pytest.raises(DatasetError):
            Dataset("", schema)

    def test_iteration_in_id_order(self, schema):
        ds = Dataset("D", schema, [Sample(5), Sample(2), Sample(9)])
        assert [s.id for s in ds] == [2, 5, 9]
        assert ds.sample_ids == (2, 5, 9)

    def test_counts(self, schema):
        ds = Dataset(
            "D",
            schema,
            [
                Sample(1, [region("chr1", 0, 5, "*", 1.0)], Metadata({"a": "x"})),
                Sample(2, [region("chr2", 0, 5, "*", 2.0)] * 2),
            ],
        )
        assert ds.region_count() == 3
        assert ds.metadata_count() == 1
        assert ds.chromosomes() == ("chr1", "chr2")
        assert ds.metadata_attributes() == ("a",)

    def test_build_convenience(self, schema):
        ds = Dataset.build(
            "D", schema, {3: ([region("chr1", 0, 5, "*", 0.1)], {"cell": "HeLa"})}
        )
        assert ds[3].meta.first("cell") == "HeLa"

    def test_with_name_shares_samples(self, schema):
        ds = Dataset("D", schema, [Sample(1)])
        clone = ds.with_name("E")
        assert clone.name == "E" and len(clone) == 1

    def test_estimated_size_positive_and_monotone(self, schema):
        small = Dataset("D", schema, [Sample(1, [region("chr1", 0, 5, "*", 1.0)])])
        big = Dataset(
            "E",
            schema,
            [Sample(1, [region("chr1", i, i + 5, "*", 1.0) for i in range(100)])],
        )
        assert 0 < small.estimated_size_bytes() < big.estimated_size_bytes()

    def test_summary_fields(self, schema):
        ds = Dataset("D", schema, [Sample(1, [region("chr1", 0, 5, "*", 1.0)])])
        summary = ds.summary()
        assert summary["name"] == "D"
        assert summary["samples"] == 1
        assert summary["regions"] == 1
        assert summary["schema"] == ["score"]

    def test_summary_walks_regions_once_until_a_sample_is_added(self, schema):
        class CountingList(list):
            walks = 0

            def __iter__(self):
                CountingList.walks += 1
                return super().__iter__()

        sample = Sample(1, [region("chr1", 0, 5, "*", 1.0),
                            region("chr2", 0, 5, "*", 2.0)])
        sample.regions = CountingList(sample.regions)
        ds = Dataset("D", schema, [sample], validate=False)
        first = ds.summary()
        assert CountingList.walks == 1
        assert first["shards"]["chroms"] == {"chr1": [1, 1, 44],
                                             "chr2": [1, 1, 44]}
        # A caller editing its copy must not poison the memo.
        first["shards"]["chroms"]["chr1"][1] = 99
        assert ds.summary() == {**first, "shards": ds.shard_summary()}
        assert ds.shard_summary()["chroms"]["chr1"] == [1, 1, 44]
        assert CountingList.walks == 1
        ds.add_sample(Sample(2, [region("chr1", 7, 9, "*", 3.0)]))
        assert ds.summary()["shards"]["chroms"]["chr1"] == [2, 2, 88]
        assert CountingList.walks == 2

    def test_validate_false_skips_coercion(self):
        schema = RegionSchema.of(("n", INT))
        sample = Sample(1, [region("chr1", 0, 5, "*", "7")])
        ds = Dataset("D", schema, [sample], validate=False)
        assert ds[1].regions[0].values == ("7",)
