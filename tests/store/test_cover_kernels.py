"""Differential tests of the event-sweep coverage kernels.

The oracle is the naive interval machinery itself --
:func:`cover_intervals` / :func:`flat_intervals` /
:func:`summit_intervals` / :func:`histogram_intervals` over region
lists, and brute-force :meth:`GenomicRegion.overlaps` for DIFFERENCE --
which defines both the row *set* and the row *order* (the columnar and
parallel backends must be byte-identical to the naive engine).  Inputs
bake in the usual nasties: zero-length regions, coincident starts and
ends, intervals straddling the BIN=64 zone-map grid, mixed strands,
multi-sample splits and chromosomes that appear in one sample only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import GenomicRegion
from repro.intervals import (
    AccumulationBound,
    cover_intervals,
    flat_intervals,
    histogram_intervals,
    summit_intervals,
)
from repro.store import SampleBlocks
from repro.store.cover_kernels import (
    group_cover_rows,
    mask_chrom_events,
    multiset_subtract,
    overlap_any_mask,
    sweep_profile,
    wide_sorted_events,
)

BIN = 64
VARIANTS = ("COVER", "FLAT", "SUMMIT", "HISTOGRAM")
#: ``AccumulationBound.any()`` resolved as an upper bound.
ANY_UPPER = 1 << 62

#: Positions biased toward the BIN=64 grid; widths include zero-length.
_POSITIONS = st.one_of(
    st.integers(0, 6 * BIN),
    st.sampled_from([0, BIN - 1, BIN, BIN + 1, 2 * BIN, 3 * BIN]),
)
_WIDTHS = st.one_of(
    st.integers(0, 3 * BIN),
    st.sampled_from([0, 1, BIN, 2 * BIN]),
)
_INTERVALS = st.tuples(
    st.sampled_from(["chr1", "chr2", "chrX"]),
    _POSITIONS,
    _WIDTHS,
    st.sampled_from(["+", "-", "*"]),
)
#: A COVER group: up to four samples with independent region lists.
_GROUPS = st.lists(
    st.lists(_INTERVALS, max_size=18), min_size=1, max_size=4
)
#: (min_acc, max_acc) pairs, including the resolved ANY upper bound.
_BOUNDS = st.tuples(
    st.integers(0, 4),
    st.sampled_from([1, 2, 3, 4, ANY_UPPER]),
)


def make_regions(spec):
    return [
        GenomicRegion(chrom, pos, pos + width, strand)
        for chrom, pos, width, strand in spec
    ]


def kernel_rows(groups, lo, hi, variant):
    blocks_list = [
        SampleBlocks(None, make_regions(spec), BIN) for spec in groups
    ]
    return [
        (chrom, left, right, depth)
        for chrom, lefts, rights, depths in group_cover_rows(
            blocks_list, lo, hi, variant
        )
        for left, right, depth in zip(
            lefts.tolist(), rights.tolist(), depths.tolist()
        )
    ]


def naive_rows(groups, lo, hi, variant):
    regions = [region for spec in groups for region in make_regions(spec)]
    if variant == "COVER":
        return [
            (chrom, left, right, depth)
            for chrom, left, right, depth, __ in cover_intervals(
                regions, lo, hi
            )
        ]
    if variant == "FLAT":
        return [
            (chrom, left, right, depth)
            for chrom, left, right, depth, __ in flat_intervals(
                regions, lo, hi
            )
        ]
    if variant == "SUMMIT":
        return list(summit_intervals(regions, lo, hi))
    return list(histogram_intervals(regions, lo, hi))


class TestCoverFamilyDifferential:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(groups=_GROUPS, bounds=_BOUNDS)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, variant, groups, bounds):
        lo, hi = bounds
        assert kernel_rows(groups, lo, hi, variant) == naive_rows(
            groups, lo, hi, variant
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "min_acc,max_acc",
        [
            (AccumulationBound.exact(1), AccumulationBound.any()),
            (AccumulationBound.exact(2), AccumulationBound.all()),
            (AccumulationBound.all(offset=1, scale=0.5),
             AccumulationBound.any()),
            (AccumulationBound.all(), AccumulationBound.all()),
        ],
    )
    def test_resolved_any_all_bounds(self, variant, min_acc, max_acc):
        groups = [
            [("chr1", 0, 40, "+"), ("chr1", 20, 40, "-"), ("chr2", 5, 0, "*")],
            [("chr1", 30, 40, "*"), ("chr1", 30, 0, "*")],
            [("chr1", 10, 80, "+"), ("chrX", 64, 64, "-")],
        ]
        lo = min_acc.resolve(len(groups), is_lower=True)
        hi = max_acc.resolve(len(groups), is_lower=False)
        assert kernel_rows(groups, lo, hi, variant) == naive_rows(
            groups, lo, hi, variant
        )

    def test_net_zero_breakpoint_splits_histogram(self):
        # One region ends exactly where another starts: the profile keeps
        # the breakpoint, so HISTOGRAM emits two adjacent equal-depth rows.
        groups = [[("chr1", 0, 5, "+"), ("chr1", 5, 5, "+")]]
        assert kernel_rows(groups, 1, ANY_UPPER, "HISTOGRAM") == [
            ("chr1", 0, 5, 1),
            ("chr1", 5, 10, 1),
        ]
        # ...while COVER merges them into one run.
        assert kernel_rows(groups, 1, ANY_UPPER, "COVER") == [
            ("chr1", 0, 10, 1)
        ]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_length_only_chromosome_is_absent(self, variant):
        groups = [[("chr1", 10, 0, "+"), ("chr1", 10, 0, "-"),
                   ("chr2", 0, 8, "*")]]
        rows = kernel_rows(groups, 1, ANY_UPPER, variant)
        assert rows == naive_rows(groups, 1, ANY_UPPER, variant)
        assert all(row[0] == "chr2" for row in rows)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_group(self, variant):
        assert kernel_rows([[]], 1, ANY_UPPER, variant) == []

    def test_flat_extends_to_contributing_regions(self):
        # The depth-2 run [20, 30) is contributed to by [0, 30) and
        # [20, 50): FLAT widens it to their full extent.
        groups = [[("chr1", 0, 30, "+")], [("chr1", 20, 30, "-")]]
        assert kernel_rows(groups, 2, ANY_UPPER, "FLAT") == [
            ("chr1", 0, 50, 2)
        ]


def unique_profile(starts, stops):
    """The sweep as first written: ``np.unique`` over the events, net
    deltas by ``bincount``, depths by ``cumsum``."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.concatenate((starts, stops))
    deltas = np.ones(positions.size, dtype=np.int64)
    deltas[starts.size:] = -1
    bounds, inverse = np.unique(positions, return_inverse=True)
    net = np.bincount(
        inverse, weights=deltas, minlength=bounds.size
    ).astype(np.int64)
    return bounds, np.cumsum(net)


_TOP = (1 << 63) - 1
#: Wide intervals as ``(stop, width)``: small coordinates that collide
#: often, and stops up to the largest int64 coordinate.
_WIDE = st.tuples(
    st.one_of(
        st.integers(1, 12),
        st.integers(_TOP - 12, _TOP),
        st.sampled_from([1, 2, _TOP - 1, _TOP]),
    ),
    st.integers(1, 12),
)


class TestSweepProfile:
    @given(st.lists(_WIDE, max_size=40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_unique_formulation(self, intervals, presorted):
        stops = [stop for stop, __ in intervals]
        starts = [max(stop - width, 0) for stop, width in intervals]
        if presorted:
            # The shape the store hands over: each side sorted alone.
            starts, stops = sorted(starts), sorted(stops)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        bounds, depths = sweep_profile(starts, stops)
        expected_bounds, expected_depths = unique_profile(starts, stops)
        assert bounds.dtype == depths.dtype == np.int64
        assert bounds.tolist() == expected_bounds.tolist()
        assert depths.tolist() == expected_depths.tolist()

    def test_coincident_starts_and_stops(self):
        # [0, 5) ends where [5, 9) and [5, 7) start: the net-zero
        # position stays a breakpoint, with the depth from it on.
        starts = np.asarray([0, 5, 5], dtype=np.int64)
        stops = np.asarray([5, 9, 7], dtype=np.int64)
        bounds, depths = sweep_profile(starts, stops)
        assert bounds.tolist() == [0, 5, 7, 9]
        assert depths.tolist() == [1, 2, 1, 0]

    def test_coordinates_at_the_int64_limit(self):
        starts = np.asarray([_TOP - 2, _TOP - 1], dtype=np.int64)
        stops = np.asarray([_TOP, _TOP], dtype=np.int64)
        bounds, depths = sweep_profile(starts, stops)
        assert bounds.tolist() == [_TOP - 2, _TOP - 1, _TOP]
        assert depths.tolist() == [1, 2, 0]


class TestMultisetSubtract:
    @given(
        st.lists(st.integers(0, 20), max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_subtraction(self, values, data):
        from collections import Counter

        removals = data.draw(
            st.lists(st.sampled_from(values), max_size=len(values))
            if values
            else st.just([])
        )
        counted = Counter(removals)
        if any(count > values.count(v) for v, count in counted.items()):
            removals = [v for v in set(removals)]  # de-dup keeps it a subset
        expected = sorted((Counter(values) - Counter(removals)).elements())
        out = multiset_subtract(
            np.sort(np.asarray(values, dtype=np.int64)),
            np.sort(np.asarray(removals, dtype=np.int64)),
        )
        assert out.tolist() == expected

    def test_wide_sorted_events_drops_zero_length(self):
        regions = make_regions(
            [("chr1", 5, 0, "+"), ("chr1", 5, 10, "+"), ("chr1", 5, 0, "-"),
             ("chr1", 2, 3, "*")]
        )
        block = SampleBlocks(None, regions, BIN).chroms["chr1"]
        starts, stops = wide_sorted_events(
            block.sorted_starts, block.sorted_stops, block.zero_positions
        )
        assert starts.tolist() == [2, 5]
        assert stops.tolist() == [5, 15]
        bounds, depths = sweep_profile(starts, stops)
        assert bounds.tolist() == [2, 5, 15]
        assert depths.tolist() == [1, 1, 0]


# -- DIFFERENCE overlap mask ---------------------------------------------------


def _overlap_oracle(ref_regions, probe_regions):
    return [
        any(ref.overlaps(probe) for probe in probe_regions)
        for ref in ref_regions
    ]


def _kernel_mask(ref_regions, probe_regions):
    ref_block = SampleBlocks(None, ref_regions, BIN).chroms["chr1"]
    probe_block = SampleBlocks(None, probe_regions, BIN).chroms["chr1"]
    ordered = overlap_any_mask(
        ref_block.starts, ref_block.stops, *mask_chrom_events(probe_block)
    )
    out = np.empty(len(ref_regions), dtype=bool)
    out[ref_block.index] = ordered
    return out.tolist()


_CHR1_INTERVALS = st.lists(
    st.tuples(_POSITIONS, _WIDTHS, st.sampled_from(["+", "-", "*"])),
    min_size=1,
    max_size=20,
)


class TestOverlapAnyMask:
    @given(_CHR1_INTERVALS, _CHR1_INTERVALS)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, ref_spec, probe_spec):
        refs = make_regions([("chr1", *row) for row in ref_spec])
        probes = make_regions([("chr1", *row) for row in probe_spec])
        assert _kernel_mask(refs, probes) == _overlap_oracle(refs, probes)

    def test_point_on_merged_run_seam_does_not_overlap(self):
        # [0,5) + [5,10) merge into one coverage run [0,10), but a point
        # at the internal seam overlaps neither region.
        probes = make_regions([("chr1", 0, 5, "+"), ("chr1", 5, 5, "+")])
        refs = make_regions(
            [("chr1", 5, 0, "*"), ("chr1", 4, 0, "*"), ("chr1", 4, 2, "*")]
        )
        assert _kernel_mask(refs, probes) == [False, True, True]

    def test_coincident_points_never_overlap(self):
        probes = make_regions([("chr1", 7, 0, "+")])
        refs = make_regions([("chr1", 7, 0, "-"), ("chr1", 7, 0, "*")])
        assert _kernel_mask(refs, probes) == [False, False]

    def test_point_reference_at_probe_edges(self):
        probes = make_regions([("chr1", 10, 10, "+")])  # [10, 20)
        refs = make_regions(
            [("chr1", 10, 0, "*"), ("chr1", 19, 0, "*"), ("chr1", 20, 0, "*")]
        )
        assert _kernel_mask(refs, probes) == [False, True, False]

    def test_point_probe_at_reference_edges(self):
        probes = make_regions([("chr1", 30, 0, "+")])
        refs = make_regions(
            [("chr1", 20, 10, "*"), ("chr1", 30, 10, "*"), ("chr1", 29, 2, "*")]
        )
        assert _kernel_mask(refs, probes) == [False, False, True]
