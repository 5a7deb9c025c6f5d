"""Genometric distances: the machinery behind GMQL's distal join predicates.

The genome is "a sequence of positions" (paper, section 2); distances between
regions are measured in positions between their closest ends, with negative
values denoting overlap width.  This module provides nearest-neighbour
queries (``MD(k)``), bounded-distance candidate enumeration (``DLE``/``DGE``)
and strand-aware upstream/downstream classification.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from repro.gdm.region import GenomicRegion


def distance(a: GenomicRegion, b: GenomicRegion) -> int | None:
    """Genometric distance (see :meth:`GenomicRegion.distance`)."""
    return a.distance(b)


def is_upstream(anchor: GenomicRegion, other: GenomicRegion) -> bool:
    """True when *other* lies upstream of *anchor*, relative to its strand.

    Upstream of a ``+`` (or unstranded) anchor means strictly before its
    left end; upstream of a ``-`` anchor means strictly after its right
    end.  Overlapping regions are neither upstream nor downstream.
    """
    if anchor.chrom != other.chrom:
        return False
    if anchor.strand == "-":
        return other.left >= anchor.right
    return other.right <= anchor.left


def is_downstream(anchor: GenomicRegion, other: GenomicRegion) -> bool:
    """True when *other* lies downstream of *anchor* (strand-aware)."""
    if anchor.chrom != other.chrom:
        return False
    if anchor.strand == "-":
        return other.right <= anchor.left
    return other.left >= anchor.right


def stream_pair_mask(
    anchor_strands,
    anchor_starts,
    anchor_stops,
    other_starts,
    other_stops,
    *,
    upstream: bool,
):
    """Vectorised :func:`is_upstream` / :func:`is_downstream` over pairs.

    All five arrays are aligned element-wise and describe same-chromosome
    (anchor, other) pairs; *anchor_strands* uses the store's integer
    strand encoding where ``'-'`` is negative (see
    :data:`repro.store.columnar.STRAND_CODES`).  Returns a boolean mask.
    Overlapping pairs are neither upstream nor downstream, exactly like
    the scalar predicates.
    """
    import numpy as np

    before = other_stops <= anchor_starts
    after = other_starts >= anchor_stops
    reverse = anchor_strands < 0
    if upstream:
        return np.where(reverse, after, before)
    return np.where(reverse, before, after)


class NearestIndex:
    """Per-chromosome sorted index answering nearest-k and within-d queries.

    Build once over the *experiment* side of a genometric join, then probe
    with each *anchor* region.  Uses binary search over regions sorted by
    left end, expanding outward -- O(log n + k) per probe in sparse data.
    """

    __slots__ = ("_by_chrom", "_lefts", "_max_width")

    def __init__(self, regions: Sequence[GenomicRegion]) -> None:
        self._by_chrom: dict = {}
        for region in regions:
            self._by_chrom.setdefault(region.chrom, []).append(region)
        self._lefts: dict = {}
        self._max_width: dict = {}
        for chrom, chrom_regions in self._by_chrom.items():
            chrom_regions.sort(key=lambda r: (r.left, r.right))
            self._lefts[chrom] = [r.left for r in chrom_regions]
            self._max_width[chrom] = max(r.length for r in chrom_regions)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_chrom.values())

    def within(
        self, anchor: GenomicRegion, max_distance: int
    ) -> Iterator[tuple]:
        """Yield ``(region, distance)`` for regions within *max_distance*.

        Overlapping regions (negative distance) are always included when
        ``max_distance >= 0``.  Results are unordered.
        """
        chrom_regions = self._by_chrom.get(anchor.chrom)
        if not chrom_regions:
            return
        lefts = self._lefts[anchor.chrom]
        # A region with left end beyond anchor.right + max_distance starts
        # too far right; one whose left end is more than
        # max_distance + max_width before the anchor must also end too far
        # left.  Both bounds are binary-searchable on the sorted lefts.
        hi = bisect.bisect_right(lefts, anchor.right + max_distance)
        lo = bisect.bisect_left(
            lefts,
            anchor.left - max_distance - self._max_width[anchor.chrom],
        )
        for region in chrom_regions[lo:hi]:
            gap = max(anchor.left, region.left) - min(anchor.right, region.right)
            if gap <= max_distance:
                yield (region, gap)

    def nearest(
        self, anchor: GenomicRegion, k: int = 1
    ) -> list:
        """The *k* regions with minimum distance to *anchor*.

        Returns ``(region, distance)`` pairs ordered by distance then
        genome position.  This is the ``MD(k)`` join predicate.
        """
        chrom_regions = self._by_chrom.get(anchor.chrom)
        if not chrom_regions:
            return []
        scored = [
            (max(anchor.left, region.left) - min(anchor.right, region.right),
             region.left, region.right, region)
            for region in chrom_regions
        ]
        scored.sort(key=lambda item: item[:3])
        return [(item[3], item[0]) for item in scored[:k]]
