"""Coverage accumulation: the kernel of GMQL COVER.

COVER computes, from the regions of *all* samples of a dataset, the maximal
intervals where the number of overlapping regions (the *accumulation index*)
stays within ``[min_acc, max_acc]``.  The computation is a classic event-point
sweep: +1 events at region left ends, -1 events at right ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.gdm.region import GenomicRegion, chromosome_sort_key


@dataclass(frozen=True)
class CoverageSegment:
    """A maximal run of constant accumulation depth on one chromosome."""

    chrom: str
    left: int
    right: int
    depth: int


def coverage_profile(
    regions: Sequence[GenomicRegion],
) -> Iterator[CoverageSegment]:
    """Yield constant-depth segments in genome order (depth > 0 only).

    >>> segs = list(coverage_profile([GenomicRegion("chr1", 0, 10),
    ...                               GenomicRegion("chr1", 5, 15)]))
    >>> [(s.left, s.right, s.depth) for s in segs]
    [(0, 5, 1), (5, 10, 2), (10, 15, 1)]
    """
    events: dict = {}
    for region in regions:
        if region.right <= region.left:
            continue
        chrom_events = events.setdefault(region.chrom, {})
        chrom_events[region.left] = chrom_events.get(region.left, 0) + 1
        chrom_events[region.right] = chrom_events.get(region.right, 0) - 1
    for chrom in sorted(events, key=chromosome_sort_key):
        depth = 0
        previous = None
        for position in sorted(events[chrom]):
            if previous is not None and depth > 0 and position > previous:
                yield CoverageSegment(chrom, previous, position, depth)
            depth += events[chrom][position]
            previous = position


class AccumulationBound:
    """A COVER accumulation bound: an integer, ``ANY``, or ``ALL``-relative.

    ``ANY`` means "no bound"; ``ALL`` resolves to the number of samples in
    the operand dataset, and arithmetic forms like ``(ALL + 1) / 2`` are
    supported through the *scale* and *offset* fields:
    bound = ceil((ALL + offset) * scale).
    """

    __slots__ = ("kind", "value", "offset", "scale")

    def __init__(self, kind: str, value: int = 0,
                 offset: int = 0, scale: float = 1.0) -> None:
        if kind not in ("INT", "ANY", "ALL"):
            raise ValueError(f"bad accumulation bound kind {kind!r}")
        self.kind = kind
        self.value = value
        self.offset = offset
        self.scale = scale

    @classmethod
    def exact(cls, value: int) -> "AccumulationBound":
        """A plain integer bound."""
        return cls("INT", value=value)

    @classmethod
    def any(cls) -> "AccumulationBound":
        """The unbounded ``ANY`` bound."""
        return cls("ANY")

    @classmethod
    def all(cls, offset: int = 0, scale: float = 1.0) -> "AccumulationBound":
        """An ``ALL``-relative bound: ceil((ALL + offset) * scale)."""
        return cls("ALL", offset=offset, scale=scale)

    def resolve(self, n_samples: int, is_lower: bool) -> int:
        """Concrete integer bound given the operand's sample count."""
        if self.kind == "INT":
            return self.value
        if self.kind == "ANY":
            return 1 if is_lower else (1 << 62)
        return max(1, math.ceil((n_samples + self.offset) * self.scale))

    def __repr__(self) -> str:
        if self.kind == "INT":
            return f"AccumulationBound({self.value})"
        if self.kind == "ANY":
            return "AccumulationBound(ANY)"
        return f"AccumulationBound(ALL, offset={self.offset}, scale={self.scale})"


def cover_intervals_from_segments(
    segments: Iterator[CoverageSegment] | Sequence[CoverageSegment],
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """Run-merging core of COVER, over an externally computed depth profile.

    *segments* must be positive-depth constant-depth segments in genome
    order (what :func:`coverage_profile` yields; the columnar engine
    computes the same profile with numpy).
    """
    if min_acc < 1:
        min_acc = 1
    run: list = []
    for segment in segments:
        in_range = min_acc <= segment.depth <= max_acc
        if run and (
            segment.chrom != run[0].chrom
            or segment.left != run[-1].right
            or not in_range
        ):
            yield _flush_run(run)
            run = []
        if in_range:
            run.append(segment)
    if run:
        yield _flush_run(run)


def cover_intervals(
    regions: Sequence[GenomicRegion],
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """Yield maximal ``(chrom, left, right, max_depth, base_count)`` runs.

    A result interval is a maximal union of contiguous constant-depth
    segments whose depth lies within ``[min_acc, max_acc]``.  ``max_depth``
    is the maximum accumulation inside the run (COVER's ``MaxAcc``
    aggregate); ``base_count`` is the number of segments merged (used by
    the HISTOGRAM variant's bookkeeping).
    """
    yield from cover_intervals_from_segments(
        coverage_profile(regions), min_acc, max_acc
    )


def _flush_run(run: list) -> tuple:
    return (
        run[0].chrom,
        run[0].left,
        run[-1].right,
        max(segment.depth for segment in run),
        len(run),
    )


def summit_intervals_from_segments(
    segments,
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """SUMMIT run logic over an externally computed depth profile."""
    if min_acc < 1:
        min_acc = 1
    run: list = []
    for segment in segments:
        in_range = min_acc <= segment.depth <= max_acc
        if run and (
            segment.chrom != run[0].chrom
            or segment.left != run[-1].right
            or not in_range
        ):
            yield from _summits(run)
            run = []
        if in_range:
            run.append(segment)
    if run:
        yield from _summits(run)


def summit_intervals(
    regions: Sequence[GenomicRegion],
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """Yield local accumulation maxima (the COVER ``SUMMIT`` variant).

    Within each qualifying run, yields the constant-depth segments that
    are local maxima of the depth profile, as
    ``(chrom, left, right, depth)`` tuples.
    """
    yield from summit_intervals_from_segments(
        coverage_profile(regions), min_acc, max_acc
    )


def _summits(run: list) -> Iterator[tuple]:
    for i, segment in enumerate(run):
        left_ok = i == 0 or run[i - 1].depth < segment.depth
        right_ok = i == len(run) - 1 or run[i + 1].depth <= segment.depth
        if left_ok and right_ok:
            yield (segment.chrom, segment.left, segment.right, segment.depth)


def histogram_intervals(
    regions: Sequence[GenomicRegion],
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """Yield each constant-depth segment in range (COVER ``HISTOGRAM``).

    Tuples are ``(chrom, left, right, depth)``.
    """
    if min_acc < 1:
        min_acc = 1
    for segment in coverage_profile(regions):
        if min_acc <= segment.depth <= max_acc:
            yield (segment.chrom, segment.left, segment.right, segment.depth)


def flat_intervals(
    regions: Sequence[GenomicRegion],
    min_acc: int,
    max_acc: int,
) -> Iterator[tuple]:
    """Yield the full extent of each contributing region run (COVER ``FLAT``).

    FLAT returns, for each qualifying COVER interval, the union of all
    *original* regions that intersect it, i.e. the first leftmost to the
    last rightmost contributing position.  Tuples are
    ``(chrom, left, right, max_depth, base_count)``.
    """
    covers = list(cover_intervals(regions, min_acc, max_acc))
    if not covers:
        return
    by_chrom: dict = {}
    for region in regions:
        by_chrom.setdefault(region.chrom, []).append(region)
    for chrom, left, right, max_depth, base_count in covers:
        flat_left, flat_right = left, right
        for region in by_chrom.get(chrom, ()):
            if region.left < right and left < region.right:
                flat_left = min(flat_left, region.left)
                flat_right = max(flat_right, region.right)
        yield (chrom, flat_left, flat_right, max_depth, base_count)


def merge_touching(
    regions: Sequence[GenomicRegion], gap: int = 0
) -> list:
    """Merge regions closer than *gap* positions into maximal runs.

    Output regions carry no variable values (schema is reset by merging,
    as in GMQL COVER/FLAT results before aggregates are attached).
    Strand is preserved when all merged regions agree, ``"*"`` otherwise.
    """
    grouped: dict = {}
    for region in regions:
        grouped.setdefault(region.chrom, []).append(region)
    merged: list = []
    for chrom in sorted(grouped, key=chromosome_sort_key):
        run_left = run_right = None
        run_strand = None
        for region in sorted(grouped[chrom], key=lambda r: (r.left, r.right)):
            if run_left is None:
                run_left, run_right = region.left, region.right
                run_strand = region.strand
                continue
            if region.left <= run_right + gap:
                run_right = max(run_right, region.right)
                if run_strand != region.strand:
                    run_strand = "*"
            else:
                merged.append(GenomicRegion(chrom, run_left, run_right, run_strand))
                run_left, run_right = region.left, region.right
                run_strand = region.strand
        if run_left is not None:
            merged.append(GenomicRegion(chrom, run_left, run_right, run_strand))
    return merged
