"""Direct tests of the columnar kernels (vectorised paths + fallbacks)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import _vectorise_predicate
from repro.gdm import FLOAT, GenomicRegion, RegionSchema, STR, chromosome_sort_key
from repro.gmql.predicates import RegionCompare
from repro.intervals import coverage_profile
from repro.store import SampleBlocks, count_overlaps_blocks, sweep_profile

BIN = 64


def make(spec, chrom="chr1"):
    return [GenomicRegion(chrom, l, l + w) for l, w in spec]


def blocks(regions):
    """Ephemeral store blocks, the array source all kernels share now."""
    return SampleBlocks(None, regions, BIN)


class TestVectorisedCounting:
    def test_empty_references(self):
        counts, __ = count_overlaps_blocks(blocks([]), blocks([]))
        assert counts.tolist() == []

    def test_no_probes_on_chromosome(self):
        refs = make([(0, 10)])
        counts, __ = count_overlaps_blocks(
            blocks(refs), blocks(make([(0, 10)], "chr2"))
        )
        assert counts.tolist() == [0]

    @given(
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 60)), max_size=30),
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 60)), max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, ref_spec, probe_spec):
        refs = make(ref_spec)
        probes = make(probe_spec)
        expected = [sum(1 for p in probes if r.overlaps(p)) for r in refs]
        got, __ = count_overlaps_blocks(blocks(refs), blocks(probes))
        assert got.tolist() == expected


class TestVectorisedCoverage:
    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)),
                    max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_profile(self, spec):
        regions = make(spec)
        scalar = [
            (s.chrom, s.left, s.right, s.depth)
            for s in coverage_profile(regions)
        ]
        vectorised = []
        chroms = blocks(regions).chroms
        for chrom in sorted(chroms, key=chromosome_sort_key):
            block = chroms[chrom]
            wide = block.stops > block.starts
            bounds, depths = sweep_profile(
                block.starts[wide], block.stops[wide]
            )
            vectorised.extend(
                (chrom, int(bounds[i]), int(bounds[i + 1]), int(depths[i]))
                for i in range(bounds.size - 1)
                if depths[i] > 0
            )
        assert vectorised == scalar


class TestPredicateVectorisation:
    SCHEMA = RegionSchema.of(("score", FLOAT), ("name", STR))

    def regions(self):
        return [
            GenomicRegion("chr1", 0, 10, "+", (1.0, "a")),
            GenomicRegion("chr2", 5, 25, "-", (None, "b")),
            GenomicRegion("chr1", 50, 90, "*", (3.5, None)),
        ]

    def test_fixed_attribute_mask(self):
        mask = _vectorise_predicate(
            RegionCompare("chrom", "==", "chr1"), self.SCHEMA, self.regions()
        )
        assert mask.tolist() == [True, False, True]

    def test_numeric_attribute_mask_with_missing(self):
        mask = _vectorise_predicate(
            RegionCompare("score", ">", 2), self.SCHEMA, self.regions()
        )
        # None became nan: comparison is False, like the scalar path.
        assert mask.tolist() == [False, False, True]

    def test_string_attribute_mask(self):
        mask = _vectorise_predicate(
            RegionCompare("name", "==", "b"), self.SCHEMA, self.regions()
        )
        assert mask.tolist() == [False, True, False]

    def test_composite_predicate(self):
        predicate = RegionCompare("chrom", "==", "chr1") & RegionCompare(
            "left", "<", 40
        )
        mask = _vectorise_predicate(predicate, self.SCHEMA, self.regions())
        assert mask.tolist() == [True, False, False]

    def test_negation(self):
        mask = _vectorise_predicate(
            ~RegionCompare("strand", "==", "+"), self.SCHEMA, self.regions()
        )
        assert mask.tolist() == [False, True, True]

    def test_unknown_attribute_falls_back(self):
        mask = _vectorise_predicate(
            RegionCompare("missing", "==", 1), self.SCHEMA, self.regions()
        )
        assert mask is None  # caller uses the scalar path

    def test_non_numeric_target_on_numeric_column_falls_back(self):
        mask = _vectorise_predicate(
            RegionCompare("score", ">", "abc"), self.SCHEMA, self.regions()
        )
        assert mask is None

    def test_empty_region_list(self):
        mask = _vectorise_predicate(
            RegionCompare("chrom", "==", "chr1"), self.SCHEMA, []
        )
        assert mask.tolist() == []
