"""Genomic regions: the first of the two GDM entities.

A region carries the paper's five *fixed* attributes -- sample id, chromosome,
left end, right end and strand -- plus a tuple of *variable* attribute values
whose names and types are given by the owning dataset's
:class:`~repro.gdm.schema.RegionSchema`.  The sample id is not stored on the
region object itself: regions live inside a :class:`~repro.gdm.sample.Sample`,
which carries the id once for all of its regions (the id is restored when
regions are serialised).

Coordinates follow the BED convention: 0-based, half-open ``[left, right)``.
The genome is modelled as "a sequence of positions" (paper, section 2), which
is what makes genometric distance predicates well defined.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from repro.errors import CoordinateError

#: The three legal strand symbols: forward, reverse, and unstranded.
STRANDS = ("+", "-", "*")

_CHROM_SPLIT = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)
def chromosome_sort_key(chrom: str) -> tuple:
    """Return a sort key that orders chromosomes naturally.

    ``chr2`` sorts before ``chr10``, and numeric chromosomes come before
    the sex chromosomes, matching genome-browser ordering.  Keys are
    memoised (a genome has few chromosome names, sorts ask once per
    region); the key is an immutable tuple, so sharing it is safe, and
    the bound keeps a stream of odd names from growing the cache.

    >>> sorted(["chr10", "chr2", "chrX"], key=chromosome_sort_key)
    ['chr2', 'chr10', 'chrX']
    """
    parts = _CHROM_SPLIT.split(chrom)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def check_region_columns(chroms, lefts, rights, strands) -> None:
    """The :class:`GenomicRegion` constructor's checks over whole columns.

    For rows born as columns (see :class:`repro.gdm.sample.ColumnRows`):
    *lefts* and *rights* are integer arrays, *chroms* and *strands* the
    names and symbols the rows draw from.  A coordinate error names the
    first offending row, with the constructor's message.
    """
    bad = np.flatnonzero((lefts < 0) | (rights < lefts))
    if bad.size:
        left, right = int(lefts[bad[0]]), int(rights[bad[0]])
        if left < 0:
            raise CoordinateError(f"negative left end: {left}")
        raise CoordinateError(f"inverted region: [{left}, {right})")
    for strand in strands:
        if strand not in STRANDS:
            raise CoordinateError(
                f"bad strand {strand!r}; expected one of {STRANDS}"
            )
    if not all(chroms):
        raise CoordinateError("empty chromosome name")


class GenomicRegion:
    """One genomic region with typed variable attribute values.

    Instances are immutable and hashable; GMQL operators never mutate
    regions, they build new ones.

    Parameters
    ----------
    chrom:
        Chromosome name, e.g. ``"chr1"``.
    left, right:
        0-based half-open interval ends, ``0 <= left < right``.
        Zero-length regions (``left == right``) are permitted because
        point features (e.g. break points) are modelled that way.
    strand:
        One of ``"+"``, ``"-"`` or ``"*"`` (unstranded).
    values:
        Values of the variable attributes, in schema order.
    """

    __slots__ = ("chrom", "left", "right", "strand", "values")

    def __init__(
        self,
        chrom: str,
        left: int,
        right: int,
        strand: str = "*",
        values: tuple = (),
    ) -> None:
        if left < 0:
            raise CoordinateError(f"negative left end: {left}")
        if right < left:
            raise CoordinateError(f"inverted region: [{left}, {right})")
        if strand not in STRANDS:
            raise CoordinateError(f"bad strand {strand!r}; expected one of {STRANDS}")
        if not chrom:
            raise CoordinateError("empty chromosome name")
        self.chrom = chrom
        self.left = int(left)
        self.right = int(right)
        self.strand = strand
        self.values = tuple(values)

    # -- basic geometry -----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of genomic positions covered by the region."""
        return self.right - self.left

    @property
    def midpoint(self) -> float:
        """The centre position of the region (may fall between positions)."""
        return (self.left + self.right) / 2.0

    @property
    def five_prime(self) -> int:
        """The 5' end: ``left`` on ``+``/``*`` strands, ``right`` on ``-``."""
        return self.right if self.strand == "-" else self.left

    @property
    def three_prime(self) -> int:
        """The 3' end: ``right`` on ``+``/``*`` strands, ``left`` on ``-``."""
        return self.left if self.strand == "-" else self.right

    def overlaps(self, other: "GenomicRegion") -> bool:
        """True if the two regions share at least one genomic position.

        Uses the plain half-open formula ``a.left < b.right and
        b.left < a.right``; a zero-length point feature therefore overlaps
        intervals strictly containing its position, but nothing that only
        touches it at a boundary.  Regions on different chromosomes never
        overlap.  Strand is ignored -- GMQL overlap tests ignore strand
        unless an operator says otherwise; use :meth:`strands_compatible`
        to add the check.
        """
        return (
            self.chrom == other.chrom
            and self.left < other.right
            and other.left < self.right
        )

    def strands_compatible(self, other: "GenomicRegion") -> bool:
        """True when the strands do not contradict each other."""
        return "*" in (self.strand, other.strand) or self.strand == other.strand

    def contains(self, other: "GenomicRegion") -> bool:
        """True if *other* lies entirely within this region."""
        return (
            self.chrom == other.chrom
            and self.left <= other.left
            and other.right <= self.right
        )

    def distance(self, other: "GenomicRegion") -> int | None:
        """Genometric distance between two regions.

        Returns ``None`` when the regions are on different chromosomes,
        a negative number equal to minus the overlap width when they
        overlap, ``0`` when adjacent, and the size of the gap otherwise.
        This is the distance used by GMQL's genometric join predicates
        (``DLE``/``DGE``).
        """
        if self.chrom != other.chrom:
            return None
        gap = max(self.left, other.left) - min(self.right, other.right)
        return gap

    def intersection_width(self, other: "GenomicRegion") -> int:
        """Width of the overlap between the two regions (0 if disjoint)."""
        if self.chrom != other.chrom:
            return 0
        return max(0, min(self.right, other.right) - max(self.left, other.left))

    # -- derived regions ----------------------------------------------------

    def with_values(self, values: tuple) -> "GenomicRegion":
        """Copy of this region with a different variable-value tuple."""
        return GenomicRegion(self.chrom, self.left, self.right, self.strand, values)

    def with_coordinates(
        self, left: int, right: int, strand: str | None = None
    ) -> "GenomicRegion":
        """Copy of this region moved to new coordinates."""
        return GenomicRegion(
            self.chrom, left, right, strand or self.strand, self.values
        )

    def promoter(self, upstream: int, downstream: int) -> "GenomicRegion":
        """Strand-aware promoter window around the 5' end (TSS).

        For a ``+``/``*`` region the window is
        ``[left - upstream, left + downstream)``; for ``-`` it is mirrored
        around ``right``.  The left end is clipped at zero.
        """
        tss = self.five_prime
        if self.strand == "-":
            left, right = tss - downstream, tss + upstream
        else:
            left, right = tss - upstream, tss + downstream
        return GenomicRegion(self.chrom, max(0, left), max(0, right), self.strand,
                             self.values)

    # -- ordering / identity --------------------------------------------------

    def sort_key(self) -> tuple:
        """Genome-order key: (chromosome natural order, left, right, strand)."""
        return (chromosome_sort_key(self.chrom), self.left, self.right, self.strand)

    def coordinates(self) -> tuple:
        """The (chrom, left, right, strand) tuple identifying the locus."""
        return (self.chrom, self.left, self.right, self.strand)

    def __iter__(self) -> Iterator[Any]:
        """Iterate fixed coordinates then variable values (for serialisers)."""
        yield self.chrom
        yield self.left
        yield self.right
        yield self.strand
        yield from self.values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenomicRegion):
            return NotImplemented
        return (
            self.chrom == other.chrom
            and self.left == other.left
            and self.right == other.right
            and self.strand == other.strand
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.chrom, self.left, self.right, self.strand, self.values))

    def __repr__(self) -> str:
        vals = f", values={self.values!r}" if self.values else ""
        return (
            f"GenomicRegion({self.chrom!r}, {self.left}, {self.right},"
            f" {self.strand!r}{vals})"
        )
