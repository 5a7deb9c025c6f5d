"""Static interval trees over genomic regions.

GMQL's MAP, JOIN and DIFFERENCE operators all reduce to interval overlap
queries.  :class:`IntervalTree` is a classic centered interval tree built
once over an immutable region list; :class:`GenomeIndex` shards one tree per
chromosome.  They serve the naive engine; the other engines answer the
same queries with the store's searchsorted kernels, and the ablation
benchmark E14 checks and times the two against each other.

Overlap semantics match :meth:`repro.gdm.region.GenomicRegion.overlaps`:
half-open intervals with the plain formula, so zero-length point features
are returned only by queries strictly containing their position.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.gdm.region import GenomicRegion


class _Node:
    __slots__ = ("center", "by_left", "by_right", "less", "greater")

    def __init__(self, center: int, overlapping: list) -> None:
        self.center = center
        self.by_left = sorted(overlapping, key=lambda r: r.left)
        self.by_right = sorted(overlapping, key=lambda r: r.right, reverse=True)
        self.less: _Node | None = None
        self.greater: _Node | None = None


def _build(regions: list) -> _Node | None:
    if not regions:
        return None
    # Node center is the median interval midpoint.  Zero-length regions are
    # widened to one position for placement only; queries still apply exact
    # half-open overlap checks, so they are never spuriously returned.
    midpoints = sorted(
        (r.left + max(r.right, r.left + 1)) // 2 for r in regions
    )
    center = midpoints[len(midpoints) // 2]
    here, less, greater = [], [], []
    for region in regions:
        placed_right = max(region.right, region.left + 1)
        if placed_right <= center:
            less.append(region)
        elif region.left > center:
            greater.append(region)
        else:
            here.append(region)
    if not here:
        # Cannot happen for the median-of-midpoints center (the interval
        # producing the median always straddles it), but guarantee progress
        # against future changes to the center choice.
        source = less if less else greater
        here.append(source.pop())
    node = _Node(center, here)
    node.less = _build(less)
    node.greater = _build(greater)
    return node


class IntervalTree:
    """Centered interval tree over regions of a single chromosome.

    Build cost is O(n log n); an overlap query costs O(log n + k) for k
    hits.  The tree is static: this matches the GMQL execution model,
    where one operand (the reference) is indexed once and probed many
    times.

    >>> tree = IntervalTree([GenomicRegion("chr1", 0, 10),
    ...                      GenomicRegion("chr1", 20, 30)])
    >>> sorted(r.left for r in tree.query(5, 25))
    [0, 20]
    """

    __slots__ = ("_root", "_size")

    def __init__(self, regions: Sequence[GenomicRegion] = ()) -> None:
        self._size = len(regions)
        self._root = _build(list(regions))

    def __len__(self) -> int:
        return self._size

    def query(self, left: int, right: int) -> Iterator[GenomicRegion]:
        """Yield stored regions overlapping ``[left, right)`` (any order)."""
        if right < left:
            return
        if right == left:
            # Zero-length query [p, p): per GenomicRegion.overlaps a point
            # feature matches regions strictly containing its position, so
            # take the [p, p+1) candidates minus ones merely starting at p.
            for region in self.query(left, left + 1):
                if region.left < left:
                    yield region
            return
        stack = []
        if self._root is not None:
            stack.append(self._root)
        while stack:
            node = stack.pop()
            if right <= node.center:
                # Query lies left of (or touches) the center: only regions
                # starting before the query end can overlap.
                for region in node.by_left:
                    if region.left >= right:
                        break
                    if region.right > left:
                        yield region
                if node.less is not None:
                    stack.append(node.less)
            elif left > node.center:
                # Query lies right of the center: only regions ending after
                # the query start can overlap.
                for region in node.by_right:
                    if region.right <= left:
                        break
                    if region.left < right:
                        yield region
                if node.greater is not None:
                    stack.append(node.greater)
            else:
                # Query spans the center: check the whole node list (it is
                # small in practice) and descend both ways.
                for region in node.by_left:
                    if region.left >= right:
                        break
                    if region.right > left:
                        yield region
                if node.less is not None:
                    stack.append(node.less)
                if node.greater is not None:
                    stack.append(node.greater)

    def stab(self, position: int) -> Iterator[GenomicRegion]:
        """Yield stored regions covering the single genomic *position*."""
        return self.query(position, position + 1)


class GenomeIndex:
    """One :class:`IntervalTree` per chromosome.

    This is the index used by the naive engine for MAP, JOIN and
    DIFFERENCE: the reference operand is indexed per chromosome and
    probes route by chromosome name.
    """

    __slots__ = ("_trees",)

    def __init__(self, regions: Sequence[GenomicRegion] = ()) -> None:
        by_chrom: dict = {}
        for region in regions:
            by_chrom.setdefault(region.chrom, []).append(region)
        self._trees = {
            chrom: IntervalTree(chrom_regions)
            for chrom, chrom_regions in by_chrom.items()
        }

    def __len__(self) -> int:
        return sum(len(tree) for tree in self._trees.values())

    def chromosomes(self) -> tuple:
        """Sorted tuple of indexed chromosome names."""
        return tuple(sorted(self._trees))

    def query(self, chrom: str, left: int, right: int) -> Iterator[GenomicRegion]:
        """Yield stored regions on *chrom* overlapping ``[left, right)``."""
        tree = self._trees.get(chrom)
        if tree is None:
            return iter(())
        return tree.query(left, right)

    def overlapping(self, region: GenomicRegion) -> Iterator[GenomicRegion]:
        """Yield stored regions overlapping *region* (chromosome-aware)."""
        return self.query(region.chrom, region.left, region.right)
