"""``genome_order``: sorting rows by ``GenomicRegion.sort_key``, as arrays.

The columnar JOIN puts its output in genome order with one stable
``np.lexsort`` over block columns instead of a Python sort keyed on
``GenomicRegion.sort_key``; the two must agree on every input,
including chromosome names whose natural-order keys tie (``chr1`` /
``chr01``) and rows whose whole key ties (input order decides).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import GenomicRegion
from repro.store import STRAND_CODES, chromosome_ranks, genome_order

CHROMS = (
    "chr1", "chr01", "chr2", "chr10", "chrX", "chrY", "chrM",
    "chr1_random", "2", "scaffold_7",
)

_ROWS = st.lists(
    st.tuples(
        st.sampled_from(CHROMS),
        st.integers(0, 6),
        st.integers(0, 3),
        st.sampled_from(["+", "-", "*"]),
    ),
    max_size=60,
)


def order_of(regions: list, ties=None) -> np.ndarray:
    return genome_order(
        chromosome_ranks([r.chrom for r in regions]),
        np.array([r.left for r in regions], dtype=np.int64),
        np.array([r.right for r in regions], dtype=np.int64),
        np.array([STRAND_CODES[r.strand] for r in regions], dtype=np.int8),
        ties=ties,
    )


def tagged(rows) -> list:
    # Each region carries its input position, so a tie resolved in a
    # different order than list.sort's shows up as inequality.
    return [
        GenomicRegion(chrom, left, left + width, strand, (position,))
        for position, (chrom, left, width, strand) in enumerate(rows)
    ]


@given(_ROWS)
@settings(max_examples=200, deadline=None)
def test_matches_a_stable_sort_by_sort_key(rows):
    regions = tagged(rows)
    expected = sorted(regions, key=GenomicRegion.sort_key)
    assert [regions[i] for i in order_of(regions)] == expected


@given(_ROWS, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_ties_rank_equal_keys_before_input_order(rows, rng):
    regions = tagged(rows)
    ties = [rng.randint(0, 3) for __ in regions]
    expected = [
        region for region, __ in sorted(
            zip(regions, ties),
            key=lambda pair: (pair[0].sort_key(), pair[1]),
        )
    ]
    order = order_of(regions, np.array(ties, dtype=np.int64))
    assert [regions[i] for i in order] == expected


def test_chromosome_ranks_are_dense_natural_and_share_ties():
    ranks = chromosome_ranks(["chrX", "chr10", "chr2", "chr01", "chr1", "chr2"])
    assert ranks.tolist() == [3, 2, 1, 0, 0, 1]
    assert chromosome_ranks([]).tolist() == []


def test_strands_order_like_their_symbols():
    regions = [GenomicRegion("chr1", 0, 5, strand) for strand in "-+*"]
    assert [regions[i].strand for i in order_of(regions)] == ["*", "+", "-"]
