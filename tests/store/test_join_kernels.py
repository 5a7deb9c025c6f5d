"""Differential tests of the vectorised genometric join kernels.

The oracle is the naive operator stack itself:
:meth:`GenometricCondition.matches_for_anchor` over a
:class:`NearestIndex`, which defines both the *set* of matching pairs
and their *order* (the columnar/parallel backends must be byte-identical
to the naive engine, so ties in the final stable sort must arrive in the
same sequence).  Every kernel assertion therefore compares ordered pair
lists, not sets.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import GenomicRegion
from repro.gmql.genometric import (
    DistGreater,
    DistLess,
    Downstream,
    GenometricCondition,
    MinDistance,
    Upstream,
)
from repro.intervals import NearestIndex
from repro.store import SampleBlocks
from repro.store.join_kernels import (
    _anchor_min_gaps,
    expand_windows,
    group_offsets,
    join_pairs,
    overlap_pairs,
    segment_counts,
    segment_median_positions,
    segment_reduce,
)

BIN = 64

#: Clause sets covering every condition shape the language can produce.
CONDITIONS = (
    (DistLess(10),),
    (DistLess(0),),
    (DistLess(-1),),
    (DistGreater(3),),
    (DistLess(15), DistGreater(2)),
    (MinDistance(1),),
    (MinDistance(3),),
    (MinDistance(2), DistLess(15)),
    (Upstream(),),
    (Downstream(),),
    (DistLess(25), Upstream()),
    (MinDistance(2), Upstream()),
    (MinDistance(1), Downstream(), DistGreater(1)),
    (Upstream(), Downstream()),
)

_SPEC = st.lists(
    st.tuples(
        st.integers(0, 300),
        st.integers(0, 50),
        st.sampled_from(["+", "-", "*"]),
    ),
    max_size=25,
)


def make(spec, chrom="chr1"):
    return [
        GenomicRegion(chrom, left, left + width, strand)
        for left, width, strand in spec
    ]


def _clause_flags(condition):
    return {
        "max_distance": condition.max_distance(),
        "min_distance": condition.min_distance(),
        "md_k": condition.min_distance_k(),
        "upstream": any(isinstance(c, Upstream) for c in condition.clauses),
        "downstream": any(
            isinstance(c, Downstream) for c in condition.clauses
        ),
    }


def _kernel_pairs(anchors, experiment, condition):
    """Ordered ``(anchor_row, experiment_row, gap)`` pairs via the kernel."""
    a_blocks = SampleBlocks(None, anchors, BIN)
    e_blocks = SampleBlocks(None, experiment, BIN)
    flags = _clause_flags(condition)
    out = []
    for chrom, a_block in a_blocks.chroms.items():
        e_block = e_blocks.block(chrom)
        if e_block is None:
            continue
        a_rows, e_pos, gaps = join_pairs(
            a_block.starts, a_block.stops, a_block.strands,
            e_block.sorted_starts, e_block.left_stops,
            e_block.sorted_stops if flags["md_k"] is not None else None,
            max_distance=flags["max_distance"],
            min_distance=flags["min_distance"],
            md_k=flags["md_k"],
            upstream=flags["upstream"],
            downstream=flags["downstream"],
        )
        a_index = a_block.index[a_rows]
        e_index = e_block.index[e_block.left_order[e_pos]]
        out.extend(zip(a_index.tolist(), e_index.tolist(), gaps.tolist()))
    return out


def _naive_pairs(anchors, experiment, condition):
    """The oracle: naive per-anchor matching, in naive candidate order."""
    index = NearestIndex(experiment)
    positions = {id(region): i for i, region in enumerate(experiment)}
    out = []
    for a_row, region in enumerate(anchors):
        for hit, gap in condition.matches_for_anchor(region, index):
            out.append((a_row, positions[id(hit)], gap))
    return out


class TestJoinPairsDifferential:
    @given(_SPEC, _SPEC, st.sampled_from(range(len(CONDITIONS))))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_in_order(self, a_spec, e_spec, which):
        condition = GenometricCondition(*CONDITIONS[which])
        anchors = make(a_spec)
        experiment = make(e_spec)
        assert _kernel_pairs(anchors, experiment, condition) == _naive_pairs(
            anchors, experiment, condition
        )

    @given(_SPEC, _SPEC, st.sampled_from(range(len(CONDITIONS))))
    @settings(max_examples=60, deadline=None)
    def test_multi_chromosome(self, a_spec, e_spec, which):
        condition = GenometricCondition(*CONDITIONS[which])
        half = len(a_spec) // 2
        anchors = make(a_spec[:half]) + make(a_spec[half:], "chr2")
        half = len(e_spec) // 2
        experiment = make(e_spec[:half]) + make(e_spec[half:], "chr2")
        kernel = _kernel_pairs(anchors, experiment, condition)
        naive = _naive_pairs(anchors, experiment, condition)
        # Kernel iterates chromosomes, naive iterates anchors; compare
        # per-anchor ordered runs (the backend sorts whole samples
        # afterwards, so inter-anchor interleaving never surfaces).
        by_anchor_kernel: dict = {}
        for a, e, gap in kernel:
            by_anchor_kernel.setdefault(a, []).append((e, gap))
        by_anchor_naive: dict = {}
        for a, e, gap in naive:
            by_anchor_naive.setdefault(a, []).append((e, gap))
        assert by_anchor_kernel == by_anchor_naive

    def test_strandless_upstream_means_left(self):
        # UP on a strandless ("*") anchor behaves like "+": candidates
        # strictly before the anchor's start.
        anchors = [GenomicRegion("chr1", 100, 120, "*")]
        experiment = [
            GenomicRegion("chr1", 0, 50),     # before: upstream
            GenomicRegion("chr1", 150, 160),  # after: downstream
            GenomicRegion("chr1", 110, 130),  # overlapping: neither
        ]
        condition = GenometricCondition(Upstream())
        pairs = _kernel_pairs(anchors, experiment, condition)
        assert pairs == _naive_pairs(anchors, experiment, condition)
        assert [e for __, e, __g in pairs] == [0]

    def test_negative_strand_flips_direction(self):
        anchors = [GenomicRegion("chr1", 100, 120, "-")]
        experiment = [
            GenomicRegion("chr1", 0, 50),
            GenomicRegion("chr1", 150, 160),
        ]
        up = _kernel_pairs(
            anchors, experiment, GenometricCondition(Upstream())
        )
        assert [e for __, e, __g in up] == [1]
        down = _kernel_pairs(
            anchors, experiment, GenometricCondition(Downstream())
        )
        assert [e for __, e, __g in down] == [0]

    def test_coincident_points_and_md_ties(self):
        # Several coincident zero-length candidates: MD(k) tie-breaking
        # must match the naive (gap, left, right, position) sort.
        anchors = [GenomicRegion("chr1", 100, 100)]
        experiment = [
            GenomicRegion("chr1", 90, 90),
            GenomicRegion("chr1", 110, 110),
            GenomicRegion("chr1", 90, 90),
            GenomicRegion("chr1", 110, 110),
        ]
        for k in (1, 2, 3, 4):
            condition = GenometricCondition(MinDistance(k))
            assert _kernel_pairs(
                anchors, experiment, condition
            ) == _naive_pairs(anchors, experiment, condition)

    def test_bin_straddling_intervals(self):
        # Intervals spanning zone-map bin boundaries (the BIN=64 grid).
        anchors = [GenomicRegion("chr1", 60, 70), GenomicRegion("chr1", 0, 200)]
        experiment = [
            GenomicRegion("chr1", 63, 65),
            GenomicRegion("chr1", 0, 128),
            GenomicRegion("chr1", 127, 129),
        ]
        condition = GenometricCondition(DistLess(-1))
        assert _kernel_pairs(anchors, experiment, condition) == _naive_pairs(
            anchors, experiment, condition
        )


def dense_regions(rng, count, strands="+"):
    """*count* regions packed into 500 bases: heavy overlap, shared
    starts and stops, zero-length points among them."""
    regions = []
    for __ in range(count):
        left = rng.randrange(500)
        width = rng.choice([0, 1, 2, rng.randrange(40), rng.randrange(200)])
        regions.append(GenomicRegion(
            "chr1", left, min(left + width, 500), rng.choice(strands)
        ))
    return regions


class TestDenseNearest:
    """MD(k) where every anchor has dozens of candidates at the same few
    gaps: the MD(1) nearest-gap filter must keep every candidate the ranks
    can pick, ties included, in the naive order, and k > 1 must rank the
    full pool the same way."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("direction", [(), (Upstream(),), (Downstream(),)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_in_order(self, k, direction, seed):
        rng = random.Random(seed)
        anchors = dense_regions(rng, 40, "+-*")
        experiment = dense_regions(rng, 150)
        for clauses in ((MinDistance(k), *direction),
                        (MinDistance(k), *direction, DistLess(5))):
            condition = GenometricCondition(*clauses)
            assert _kernel_pairs(
                anchors, experiment, condition
            ) == _naive_pairs(anchors, experiment, condition)

    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
        [-(1 << 62), -3, 0, 0, 1, 2, 7, (1 << 62)]
    )), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_anchor_min_gaps(self, pairs):
        pairs.sort(key=lambda pair: pair[0])
        a_rows = np.asarray([a for a, __ in pairs], dtype=np.int64)
        gaps = np.asarray([gap for __, gap in pairs], dtype=np.int64)
        by_anchor: dict = {}
        for a, gap in pairs:
            by_anchor.setdefault(a, []).append(gap)
        expected = [min(by_anchor[a]) for a, __ in pairs]
        assert _anchor_min_gaps(a_rows, gaps).tolist() == expected


class TestOverlapPairs:
    @given(_SPEC, _SPEC)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_in_canonical_order(self, r_spec, e_spec):
        refs = make(r_spec)
        experiment = make(e_spec)
        blocks = SampleBlocks(None, experiment, BIN)
        block = blocks.block("chr1")
        got = []
        if block is not None and refs:
            r_starts = np.array([r.left for r in refs], dtype=np.int64)
            r_stops = np.array([r.right for r in refs], dtype=np.int64)
            ref_rows, e_pos = overlap_pairs(
                r_starts, r_stops, block.sorted_starts, block.left_stops
            )
            e_index = block.index[block.left_order[e_pos]]
            got = list(zip(ref_rows.tolist(), e_index.tolist()))
        expected = []
        for i, ref in enumerate(refs):
            hits = [
                (e.left, e.right, j)
                for j, e in enumerate(experiment)
                if e.left < ref.right and e.right > ref.left
            ]
            expected.extend((i, j) for __, ___, j in sorted(hits))
        assert got == expected


class TestSegmentHelpers:
    def test_expand_windows(self):
        lo = np.array([0, 2, 2], dtype=np.int64)
        hi = np.array([2, 2, 5], dtype=np.int64)
        anchor_rows, members = expand_windows(lo, hi)
        assert anchor_rows.tolist() == [0, 0, 2, 2, 2]
        assert members.tolist() == [0, 1, 2, 3, 4]

    def test_group_offsets_and_counts(self):
        ref_rows = np.array([0, 0, 2, 2, 2], dtype=np.int64)
        offsets = group_offsets(ref_rows, 4)
        assert offsets.tolist() == [0, 2, 2, 5, 5]
        assert segment_counts(offsets).tolist() == [2, 0, 3, 0]

    @given(
        st.lists(st.integers(0, 3), max_size=8),
        st.lists(st.integers(-50, 50), min_size=30, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_reduce_matches_python(self, rows, pool):
        ref_rows = np.sort(np.array(rows, dtype=np.int64))
        values = np.array(pool[: len(rows)], dtype=np.int64)
        offsets = group_offsets(ref_rows, 4)
        counts = segment_counts(offsets)
        for how, fn in (("sum", sum), ("min", min), ("max", max)):
            reduced = segment_reduce(values, offsets, how)
            for i in range(4):
                segment = values[offsets[i]:offsets[i + 1]].tolist()
                if counts[i]:
                    assert reduced[i] == fn(segment)

    @given(
        st.lists(st.integers(0, 3), max_size=9),
        st.lists(st.integers(-50, 50), min_size=30, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_median_matches_statistics(self, rows, pool):
        import statistics

        ref_rows = np.sort(np.array(rows, dtype=np.int64))
        values = np.array(pool[: len(rows)], dtype=np.int64)
        offsets = group_offsets(ref_rows, 4)
        counts = segment_counts(offsets)
        ordered, lo, hi = segment_median_positions(values, ref_rows, offsets)
        for i in range(4):
            if not counts[i]:
                continue
            segment = values[offsets[i]:offsets[i + 1]].tolist()
            got = (float(ordered[lo[i]]) + float(ordered[hi[i]])) / 2
            assert got == float(statistics.median(segment))
