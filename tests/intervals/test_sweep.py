"""Unit + property tests for merging touching regions (a sorted sweep)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import GenomicRegion
from repro.intervals import merge_touching


def make(intervals, chrom="chr1", strand="*"):
    return [GenomicRegion(chrom, l, r, strand) for l, r in intervals]


class TestMergeTouching:
    def test_disjoint_kept(self):
        merged = merge_touching(make([(0, 10), (20, 30)]))
        assert [(r.left, r.right) for r in merged] == [(0, 10), (20, 30)]

    def test_overlapping_merged(self):
        merged = merge_touching(make([(0, 10), (5, 15)]))
        assert [(r.left, r.right) for r in merged] == [(0, 15)]

    def test_touching_merged_with_zero_gap(self):
        merged = merge_touching(make([(0, 10), (10, 20)]))
        assert [(r.left, r.right) for r in merged] == [(0, 20)]

    def test_gap_parameter_bridges(self):
        merged = merge_touching(make([(0, 10), (14, 20)]), gap=5)
        assert [(r.left, r.right) for r in merged] == [(0, 20)]

    def test_strand_conflict_becomes_unstranded(self):
        regions = make([(0, 10)], strand="+") + make([(5, 15)], strand="-")
        merged = merge_touching(regions)
        assert merged[0].strand == "*"

    def test_strand_agreement_preserved(self):
        merged = merge_touching(make([(0, 10), (5, 15)], strand="-"))
        assert merged[0].strand == "-"

    def test_chromosomes_independent(self):
        regions = make([(0, 10)], "chr1") + make([(5, 15)], "chr2")
        assert len(merge_touching(regions)) == 2

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 30)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_merged_regions_are_disjoint_and_cover_same_positions(self, spec):
        regions = make([(l, l + w) for l, w in spec])
        merged = merge_touching(regions)
        # Disjoint and sorted.
        for a, b in zip(merged, merged[1:]):
            if a.chrom == b.chrom:
                assert a.right < b.left or a.right == b.left - 0  # no overlap
                assert a.right <= b.left
        # Same covered position set.
        def positions(rs):
            covered = set()
            for r in rs:
                covered.update(range(r.left, r.right))
            return covered

        assert positions(regions) == positions(merged)
