"""Unit tests for GenomicRegion geometry and invariants."""

import doctest

import pytest

from repro.errors import CoordinateError
from repro.gdm import GenomicRegion, chromosome_sort_key, region


class TestConstruction:
    def test_basic_fields(self):
        r = GenomicRegion("chr1", 10, 20, "+", (0.5,))
        assert (r.chrom, r.left, r.right, r.strand) == ("chr1", 10, 20, "+")
        assert r.values == (0.5,)

    def test_default_strand_is_unstranded(self):
        assert GenomicRegion("chr1", 0, 1).strand == "*"

    def test_zero_length_region_allowed(self):
        r = GenomicRegion("chr1", 5, 5)
        assert r.length == 0

    def test_negative_left_rejected(self):
        with pytest.raises(CoordinateError):
            GenomicRegion("chr1", -1, 5)

    def test_inverted_rejected(self):
        with pytest.raises(CoordinateError):
            GenomicRegion("chr1", 10, 5)

    def test_bad_strand_rejected(self):
        with pytest.raises(CoordinateError):
            GenomicRegion("chr1", 0, 5, "?")

    def test_empty_chromosome_rejected(self):
        with pytest.raises(CoordinateError):
            GenomicRegion("", 0, 5)


class TestGeometry:
    def test_length_and_midpoint(self):
        r = GenomicRegion("chr1", 10, 20)
        assert r.length == 10
        assert r.midpoint == 15.0

    def test_overlap_half_open(self):
        a = GenomicRegion("chr1", 0, 10)
        b = GenomicRegion("chr1", 10, 20)
        assert not a.overlaps(b)  # touching is not overlapping
        assert a.overlaps(GenomicRegion("chr1", 9, 11))

    def test_overlap_different_chromosomes(self):
        assert not GenomicRegion("chr1", 0, 10).overlaps(
            GenomicRegion("chr2", 0, 10)
        )

    def test_zero_length_overlap_convention(self):
        # A point feature overlaps intervals strictly containing its
        # position, but not intervals merely touching it at a boundary,
        # and never another point.
        point = GenomicRegion("chr1", 5, 5)
        assert point.overlaps(GenomicRegion("chr1", 0, 10))
        assert GenomicRegion("chr1", 0, 10).overlaps(point)
        assert not point.overlaps(GenomicRegion("chr1", 5, 10))
        assert not point.overlaps(GenomicRegion("chr1", 0, 5))
        assert not point.overlaps(GenomicRegion("chr1", 5, 5))

    def test_contains(self):
        outer = GenomicRegion("chr1", 0, 100)
        assert outer.contains(GenomicRegion("chr1", 10, 20))
        assert not outer.contains(GenomicRegion("chr1", 90, 110))

    def test_distance_overlap_negative(self):
        a = GenomicRegion("chr1", 0, 10)
        assert a.distance(GenomicRegion("chr1", 5, 15)) == -5

    def test_distance_adjacent_zero(self):
        a = GenomicRegion("chr1", 0, 10)
        assert a.distance(GenomicRegion("chr1", 10, 20)) == 0

    def test_distance_gap(self):
        a = GenomicRegion("chr1", 0, 10)
        assert a.distance(GenomicRegion("chr1", 15, 20)) == 5

    def test_distance_cross_chromosome_is_none(self):
        a = GenomicRegion("chr1", 0, 10)
        assert a.distance(GenomicRegion("chr2", 0, 10)) is None

    def test_distance_symmetric(self):
        a = GenomicRegion("chr1", 0, 10)
        b = GenomicRegion("chr1", 30, 40)
        assert a.distance(b) == b.distance(a) == 20

    def test_intersection_width(self):
        a = GenomicRegion("chr1", 0, 10)
        assert a.intersection_width(GenomicRegion("chr1", 5, 20)) == 5
        assert a.intersection_width(GenomicRegion("chr1", 20, 30)) == 0

    def test_strand_compatibility(self):
        plus = GenomicRegion("chr1", 0, 5, "+")
        minus = GenomicRegion("chr1", 0, 5, "-")
        star = GenomicRegion("chr1", 0, 5, "*")
        assert plus.strands_compatible(star)
        assert star.strands_compatible(minus)
        assert not plus.strands_compatible(minus)


class TestStrandAwareEnds:
    def test_five_prime_forward(self):
        assert GenomicRegion("chr1", 10, 20, "+").five_prime == 10

    def test_five_prime_reverse(self):
        assert GenomicRegion("chr1", 10, 20, "-").five_prime == 20

    def test_promoter_forward(self):
        p = GenomicRegion("chr1", 1000, 2000, "+").promoter(200, 50)
        assert (p.left, p.right) == (800, 1050)

    def test_promoter_reverse(self):
        p = GenomicRegion("chr1", 1000, 2000, "-").promoter(200, 50)
        assert (p.left, p.right) == (1950, 2200)

    def test_promoter_clipped_at_zero(self):
        p = GenomicRegion("chr1", 50, 100, "+").promoter(200, 0)
        assert p.left == 0


class TestOrderingIdentity:
    def test_chromosome_natural_order(self):
        names = ["chr10", "chr2", "chrX", "chr1"]
        ordered = sorted(names, key=chromosome_sort_key)
        assert ordered == ["chr1", "chr2", "chr10", "chrX"]

    def test_chromosome_key_cache_is_bounded_and_keeps_the_order(self):
        assert sorted(["chr10", "chr2", "chrX"], key=chromosome_sort_key) == [
            "chr2", "chr10", "chrX"
        ]
        assert chromosome_sort_key("chr10") is chromosome_sort_key("chr10")
        maxsize = chromosome_sort_key.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10**6
        finder = doctest.DocTestFinder()
        runner = doctest.DocTestRunner()
        for test in finder.find(chromosome_sort_key, "chromosome_sort_key"):
            runner.run(test)
        assert runner.summarize(verbose=False) == (0, 1)

    def test_sort_key_orders_regions(self):
        regions = [
            GenomicRegion("chr2", 0, 5),
            GenomicRegion("chr1", 50, 60),
            GenomicRegion("chr1", 10, 20),
        ]
        ordered = sorted(regions, key=GenomicRegion.sort_key)
        assert [r.chrom for r in ordered] == ["chr1", "chr1", "chr2"]
        assert ordered[0].left == 10

    def test_equality_and_hash(self):
        a = GenomicRegion("chr1", 0, 5, "+", (1,))
        b = GenomicRegion("chr1", 0, 5, "+", (1,))
        assert a == b
        assert hash(a) == hash(b)
        assert a != GenomicRegion("chr1", 0, 5, "+", (2,))

    def test_iteration_yields_fixed_then_values(self):
        r = region("chr1", 0, 5, "+", 0.7, "peak")
        assert list(r) == ["chr1", 0, 5, "+", 0.7, "peak"]

    def test_with_values_preserves_coordinates(self):
        r = GenomicRegion("chr1", 0, 5, "-", (1,))
        r2 = r.with_values((2, 3))
        assert r2.coordinates() == r.coordinates()
        assert r2.values == (2, 3)
