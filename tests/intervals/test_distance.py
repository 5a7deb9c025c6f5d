"""Unit + property tests for genometric distances and the nearest index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import GenomicRegion
from repro.intervals import NearestIndex, is_downstream, is_upstream


def make(intervals, chrom="chr1", strand="*"):
    return [GenomicRegion(chrom, l, r, strand) for l, r in intervals]


class TestUpDownStream:
    def test_upstream_of_forward_anchor(self):
        anchor = GenomicRegion("chr1", 100, 200, "+")
        assert is_upstream(anchor, GenomicRegion("chr1", 0, 50))
        assert not is_upstream(anchor, GenomicRegion("chr1", 250, 300))

    def test_upstream_of_reverse_anchor(self):
        anchor = GenomicRegion("chr1", 100, 200, "-")
        assert is_upstream(anchor, GenomicRegion("chr1", 250, 300))
        assert not is_upstream(anchor, GenomicRegion("chr1", 0, 50))

    def test_downstream_mirrors_upstream(self):
        anchor = GenomicRegion("chr1", 100, 200, "+")
        assert is_downstream(anchor, GenomicRegion("chr1", 250, 300))
        anchor_rev = GenomicRegion("chr1", 100, 200, "-")
        assert is_downstream(anchor_rev, GenomicRegion("chr1", 0, 50))

    def test_overlapping_is_neither(self):
        anchor = GenomicRegion("chr1", 100, 200, "+")
        inside = GenomicRegion("chr1", 150, 160)
        assert not is_upstream(anchor, inside)
        assert not is_downstream(anchor, inside)

    def test_cross_chromosome_is_neither(self):
        anchor = GenomicRegion("chr1", 100, 200, "+")
        other = GenomicRegion("chr2", 0, 50)
        assert not is_upstream(anchor, other)
        assert not is_downstream(anchor, other)


class TestNearestIndex:
    def test_within_includes_overlaps(self):
        index = NearestIndex(make([(90, 110), (300, 310)]))
        anchor = GenomicRegion("chr1", 100, 200)
        hits = dict(
            ((r.left, r.right), d) for r, d in index.within(anchor, 50)
        )
        assert (90, 110) in hits and hits[(90, 110)] < 0
        assert (300, 310) not in hits

    def test_within_distance_boundary_inclusive(self):
        index = NearestIndex(make([(210, 220)]))
        anchor = GenomicRegion("chr1", 100, 200)
        assert len(list(index.within(anchor, 10))) == 1
        assert len(list(index.within(anchor, 9))) == 0

    def test_within_empty_chromosome(self):
        index = NearestIndex(make([(0, 10)], "chr2"))
        assert list(index.within(GenomicRegion("chr1", 0, 10), 100)) == []

    def test_nearest_orders_by_distance(self):
        index = NearestIndex(make([(500, 510), (220, 230), (900, 910)]))
        anchor = GenomicRegion("chr1", 100, 200)
        nearest = index.nearest(anchor, k=2)
        assert [(r.left, r.right) for r, _ in nearest] == [(220, 230), (500, 510)]
        assert [d for _, d in nearest] == [20, 300]

    def test_nearest_k_larger_than_population(self):
        index = NearestIndex(make([(0, 10)]))
        assert len(index.nearest(GenomicRegion("chr1", 100, 200), k=5)) == 1

    @given(
        st.lists(st.tuples(st.integers(0, 500), st.integers(1, 40)), max_size=30),
        st.integers(0, 500),
        st.integers(1, 40),
        st.integers(0, 120),
    )
    @settings(max_examples=150, deadline=None)
    def test_within_matches_brute_force(self, spec, aleft, awidth, max_d):
        regions = make([(l, l + w) for l, w in spec])
        anchor = GenomicRegion("chr1", aleft, aleft + awidth)
        index = NearestIndex(regions)
        expected = sorted(
            (r.left, r.right)
            for r in regions
            if anchor.distance(r) is not None and anchor.distance(r) <= max_d
        )
        got = sorted((r.left, r.right) for r, _ in index.within(anchor, max_d))
        assert got == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 40)),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_nearest_is_global_minimum(self, spec, aleft):
        regions = make([(l, l + w) for l, w in spec])
        anchor = GenomicRegion("chr1", aleft, aleft + 10)
        index = NearestIndex(regions)
        (nearest_region, nearest_distance), *_ = index.nearest(anchor, k=1)
        assert nearest_distance == min(anchor.distance(r) for r in regions)
