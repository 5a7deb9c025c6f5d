"""Vectorised event-sweep coverage kernels: COVER family + DIFFERENCE.

The accumulation-index operators of the paper's region calculus (COVER,
FLAT, SUMMIT, HISTOGRAM) and the overlap test of DIFFERENCE all reduce
to one primitive: the *step-function coverage profile* of a set of
intervals.  This module computes that profile with a single numpy
event sweep -- every start and stop tagged into one ``uint64`` key,
the keys sorted once, the +1/-1 deltas accumulated with ``cumsum`` and
the last event of each position kept -- and serves every variant from
it with array arithmetic.

The kernels consume the **persisted sorted columns** of
:class:`~repro.store.columnar.ChromBlock` (``sorted_starts``,
``sorted_stops``, ``zero_positions``, and ``left_stops`` for FLAT):
zero-length regions are removed from the sorted multisets with a
vectorised multiset subtraction that preserves order, so the sweep's
one sort is the only one a COVER pays.  Like
:mod:`repro.store.join_kernels`, everything here operates on plain
numpy arrays -- the same functions run in the parent
process (columnar backend) and inside pool workers over shared-memory
or mmap views (parallel backend).

Semantics pinned by the differential suite
(``tests/store/test_cover_kernels.py``):

* zero-length regions contribute **no events**: they neither add depth
  nor introduce profile breakpoints (the naive sweep skips them before
  building its event dict);
* positions where the net event delta is zero (one region ends exactly
  where another starts) **do** stay as breakpoints, so HISTOGRAM emits
  two adjacent equal-depth segments there, exactly like the naive
  profile;
* DIFFERENCE overlap honours the half-open :meth:`GenomicRegion.
  overlaps` matrix for zero-length features: a point probe hits only
  strict containers, a point reference is hit only by strict
  containers, and coincident points never overlap.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def multiset_subtract(
    sorted_values: np.ndarray, sorted_removals: np.ndarray
) -> np.ndarray:
    """Drop one occurrence per removal from a sorted array (order kept).

    *sorted_removals* must be a sub-multiset of *sorted_values*; both
    ascending.  Which physical occurrence of a duplicated value is
    dropped is immaterial -- equal values are interchangeable.
    """
    if sorted_removals.size == 0:
        return sorted_values
    base = np.searchsorted(sorted_values, sorted_removals, side="left")
    run_starts = np.flatnonzero(
        np.concatenate(
            ([True], sorted_removals[1:] != sorted_removals[:-1])
        )
    )
    counts = np.diff(np.concatenate((run_starts, [sorted_removals.size])))
    within_run = np.arange(
        sorted_removals.size, dtype=np.int64
    ) - np.repeat(run_starts, counts)
    keep = np.ones(sorted_values.size, dtype=bool)
    keep[base + within_run] = False
    return sorted_values[keep]


def wide_sorted_events(
    sorted_starts: np.ndarray,
    sorted_stops: np.ndarray,
    zero_positions: np.ndarray,
) -> tuple:
    """``(starts, stops)`` of the wide regions only, both still sorted.

    A zero-length region at ``p`` contributes ``p`` once to the sorted
    starts *and* once to the sorted stops, so removing the
    ``zero_positions`` multiset from each side leaves exactly the wide
    regions' event coordinates -- without touching the unsorted pair
    columns and without re-sorting anything.
    """
    return (
        multiset_subtract(sorted_starts, zero_positions),
        multiset_subtract(sorted_stops, zero_positions),
    )


def sweep_profile(starts: np.ndarray, stops: np.ndarray) -> tuple:
    """The coverage step function of wide intervals: ``(bounds, depths)``.

    ``bounds`` holds every distinct event position ascending;
    ``depths[i]`` is the accumulation index on
    ``[bounds[i], bounds[i+1])`` (the final entry is always 0).

    One sort decides it: each event is the key ``(pos << 1) | is_stop``
    in ``uint64`` (no overflow for coordinates in ``[0, 2**63)``).  In
    key order, the running sum of the +1/-1 deltas at the last event of
    a position counts every event at or before it: the depth from that
    position on.
    """
    if starts.size == 0:
        return _EMPTY, _EMPTY
    keys = np.empty(starts.size + stops.size, dtype=np.uint64)
    keys[:starts.size] = starts
    keys[starts.size:] = stops
    keys <<= np.uint64(1)
    keys[starts.size:] |= np.uint64(1)
    keys.sort()
    deltas = (keys & np.uint64(1)).view(np.int64)
    deltas *= -2
    deltas += 1
    running = np.cumsum(deltas)
    keys >>= np.uint64(1)
    last = np.empty(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1] = True
    return keys[last].view(np.int64), running[last]


def _in_range(depths: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per-segment mask: accumulation within ``[max(lo, 1), hi]``."""
    segment_depths = depths[:-1]
    return (segment_depths >= max(lo, 1)) & (segment_depths <= hi)


def _runs_of(mask: np.ndarray) -> tuple:
    """``(run_starts, run_ends)`` segment indices of True runs in *mask*."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def profile_histogram(
    bounds: np.ndarray, depths: np.ndarray, lo: int, hi: int
) -> tuple:
    """HISTOGRAM rows ``(lefts, rights, depths)``: in-range segments."""
    if bounds.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    idx = np.flatnonzero(_in_range(depths, lo, hi))
    return bounds[idx], bounds[idx + 1], depths[idx]


def profile_cover(
    bounds: np.ndarray, depths: np.ndarray, lo: int, hi: int
) -> tuple:
    """COVER rows ``(lefts, rights, max_depths)``: maximal in-range runs.

    Runs break wherever the in-range mask does; a zero-depth gap between
    qualifying segments fails the (clamped) lower bound, which is
    exactly the naive run-merger's ``left != previous.right`` break.
    """
    if bounds.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    mask = _in_range(depths, lo, hi)
    run_starts, run_ends = _runs_of(mask)
    if run_starts.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    segment_depths = depths[:-1]
    slices = np.empty(2 * run_starts.size, dtype=np.int64)
    slices[0::2] = run_starts
    slices[1::2] = run_ends
    if slices[-1] == segment_depths.size:
        # reduceat indices must stay in bounds; the final run then
        # reduces to the end of the array, which is what we want.
        slices = slices[:-1]
    max_depths = np.maximum.reduceat(segment_depths, slices)[0::2]
    return bounds[run_starts], bounds[run_ends], max_depths


def profile_summits(
    bounds: np.ndarray, depths: np.ndarray, lo: int, hi: int
) -> tuple:
    """SUMMIT rows ``(lefts, rights, depths)``: local maxima within runs.

    A segment is a summit when its left neighbour is either outside the
    run or strictly lower, and its right neighbour is either outside
    the run or not higher -- the naive ``_summits`` rule, evaluated
    with shifted comparisons (profile segments are always contiguous,
    so "outside the run" is exactly "neighbour not in range").
    """
    if bounds.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    mask = _in_range(depths, lo, hi)
    segment_depths = depths[:-1]
    prev_in = np.zeros_like(mask)
    prev_in[1:] = mask[:-1]
    next_in = np.zeros_like(mask)
    next_in[:-1] = mask[1:]
    prev_depth = np.zeros_like(segment_depths)
    prev_depth[1:] = segment_depths[:-1]
    next_depth = np.zeros_like(segment_depths)
    next_depth[:-1] = segment_depths[1:]
    summit = (
        mask
        & (~prev_in | (prev_depth < segment_depths))
        & (~next_in | (next_depth <= segment_depths))
    )
    idx = np.flatnonzero(summit)
    return bounds[idx], bounds[idx + 1], segment_depths[idx]


def flat_extents(
    pair_starts: np.ndarray,
    pair_stops: np.ndarray,
    cover_lefts: np.ndarray,
    cover_rights: np.ndarray,
) -> tuple:
    """FLAT extents: each cover run widened to its contributing regions.

    For a run ``[L, R)`` FLAT takes the min start / max stop over the
    original wide regions overlapping it.  Two monotone scans replace
    the naive all-regions pass:

    * among regions with ``start < R`` (a ``searchsorted`` prefix of the
      start-sorted pairs), the maximum stop is a prefix-max -- and its
      achiever always overlaps the run, because the run has depth >= 1,
      so *some* region covers its first base and any prefix-max stop
      exceeds ``L``;
    * symmetrically, the minimum start among ``stop > L`` (a suffix of
      the stop-sorted pairs) is a suffix-min whose achiever starts at
      or before ``L`` < ``R``.

    Zero-length regions can never widen a FLAT extent (their min/max
    contributions are no-ops inside the half-open overlap test), so the
    pair arrays hold wide regions only.
    """
    if cover_lefts.size == 0:
        return cover_lefts, cover_rights
    by_start = np.argsort(pair_starts, kind="stable")
    starts_sorted = pair_starts[by_start]
    prefix_max_stop = np.maximum.accumulate(pair_stops[by_start])
    k = np.searchsorted(starts_sorted, cover_rights, side="left")
    flat_rights = np.maximum(cover_rights, prefix_max_stop[k - 1])
    by_stop = np.argsort(pair_stops, kind="stable")
    stops_sorted = pair_stops[by_stop]
    suffix_min_start = np.minimum.accumulate(
        pair_starts[by_stop][::-1]
    )[::-1]
    j = np.searchsorted(stops_sorted, cover_lefts, side="right")
    flat_lefts = np.minimum(cover_lefts, suffix_min_start[j])
    return flat_lefts, flat_rights


def chrom_cover_rows(parts: list, lo: int, hi: int, variant: str) -> tuple:
    """One chromosome's COVER-family rows ``(lefts, rights, depths)``.

    *parts* holds, per contributing sample block, the tuple
    ``(sorted_starts, sorted_stops, zero_positions)`` -- with
    ``left_stops`` appended for FLAT, whose extents need the original
    (start, stop) pairing that the left-order columns preserve.  All
    outputs are freshly allocated arrays (safe to return from workers
    holding shared-memory views).
    """
    starts_list, stops_list = [], []
    for part in parts:
        wide_starts, wide_stops = wide_sorted_events(
            part[0], part[1], part[2]
        )
        starts_list.append(wide_starts)
        stops_list.append(wide_stops)
    starts = np.concatenate(starts_list)
    stops = np.concatenate(stops_list)
    bounds, depths = sweep_profile(starts, stops)
    if variant == "HISTOGRAM":
        return profile_histogram(bounds, depths, lo, hi)
    if variant == "SUMMIT":
        return profile_summits(bounds, depths, lo, hi)
    lefts, rights, max_depths = profile_cover(bounds, depths, lo, hi)
    if variant != "FLAT" or lefts.size == 0:
        return lefts, rights, max_depths
    pair_starts = np.concatenate(
        [part[0][part[3] > part[0]] for part in parts]
    )
    pair_stops = np.concatenate(
        [part[3][part[3] > part[0]] for part in parts]
    )
    flat_lefts, flat_rights = flat_extents(
        pair_starts, pair_stops, lefts, rights
    )
    return flat_lefts, flat_rights, max_depths


def block_cover_columns(block, variant: str) -> tuple:
    """The persisted columns :func:`chrom_cover_rows` needs from *block*."""
    columns = (block.sorted_starts, block.sorted_stops,
               block.zero_positions)
    if variant == "FLAT":
        columns += (block.left_stops,)
    return columns


def group_cover_parts(blocks_list: list, variant: str):
    """Yield ``(chrom, parts)`` for one COVER group, in genome order.

    *blocks_list* holds each contributing sample's
    :class:`~repro.store.columnar.SampleBlocks`; *parts* is what
    :func:`chrom_cover_rows` sweeps for that chromosome.
    """
    from repro.gdm.region import chromosome_sort_key

    per_chrom: dict = {}
    for blocks in blocks_list:
        for chrom, block in blocks.chroms.items():
            per_chrom.setdefault(chrom, []).append(
                block_cover_columns(block, variant)
            )

    def first_wide(chrom) -> tuple:
        # Names whose sort keys tie (``chr1``/``chr01``) come in the
        # order the naive sweep meets them: by the group's first region
        # of positive width on each.
        for position, blocks in enumerate(blocks_list):
            block = blocks.chroms.get(chrom)
            if block is not None:
                wide = np.flatnonzero(block.stops > block.starts)
                if wide.size:
                    return (position, int(block.index[wide[0]]))
        return (len(blocks_list), 0)

    for chrom in sorted(
        per_chrom,
        key=lambda chrom: (chromosome_sort_key(chrom), first_wide(chrom)),
    ):
        yield chrom, per_chrom[chrom]


def group_cover_rows(blocks_list: list, lo: int, hi: int, variant: str,
                     bin_size: int | None = None):
    """Yield ``(chrom, lefts, rights, depths)`` for one COVER group.

    :func:`group_cover_parts` swept chromosome by chromosome;
    chromosomes with no qualifying rows are skipped (matching the naive
    iterators).  *bin_size* is accepted and unused: ``perf/probes.py``
    still passes it, and the benchmark revision of ROADMAP.md item 1
    drops it.
    """
    for chrom, parts in group_cover_parts(blocks_list, variant):
        lefts, rights, row_depths = chrom_cover_rows(
            parts, lo, hi, variant
        )
        if lefts.size:
            yield chrom, lefts, rights, row_depths


# -- DIFFERENCE served from the sweep profile -----------------------------------


def coverage_runs(bounds: np.ndarray, depths: np.ndarray) -> tuple:
    """Maximal positive-depth intervals ``(run_starts, run_ends)``.

    Runs are disjoint and separated by genuine zero-depth gaps, so both
    arrays are strictly increasing -- the precondition of the
    ``searchsorted`` overlap test in :func:`overlap_any_mask`.
    """
    if bounds.size == 0:
        return _EMPTY, _EMPTY
    run_starts, run_ends = _runs_of(depths[:-1] > 0)
    return bounds[run_starts], bounds[run_ends]


def mask_chrom_events(block) -> tuple:
    """DIFFERENCE probe-side arrays for one chromosome block.

    Returns ``(wide_starts, wide_stops, run_starts, run_ends,
    zero_positions)``: the sorted wide event arrays, the merged
    positive-depth runs of their profile, and the (sorted, distinct
    occurrences kept) zero-length positions.  Computed once per
    chromosome and reused across every left-side sample.
    """
    wide_starts, wide_stops = wide_sorted_events(
        block.sorted_starts, block.sorted_stops, block.zero_positions
    )
    bounds, depths = sweep_profile(wide_starts, wide_stops)
    run_starts, run_ends = coverage_runs(bounds, depths)
    return (wide_starts, wide_stops, run_starts, run_ends,
            block.zero_positions)


def overlap_any_mask(
    ref_starts: np.ndarray,
    ref_stops: np.ndarray,
    wide_starts: np.ndarray,
    wide_stops: np.ndarray,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    zero_positions: np.ndarray,
) -> np.ndarray:
    """Per-reference boolean: overlaps *any* probe region.

    Exact :meth:`GenomicRegion.overlaps` semantics, case by case:

    * **wide reference vs wide probes** -- the reference intersects the
      probes' coverage iff it intersects a merged positive-depth run:
      ``#(run_start < ref_stop) > #(run_end <= ref_start)``;
    * **wide reference vs point probes** -- a zero-length probe ``q``
      overlaps only strict containers (``left < q < right``), counted
      on the sorted ``zero_positions``;
    * **point reference vs wide probes** -- merged runs are *not*
      enough: a point on the internal seam of two adjacent probes
      (``[0, 5)`` + ``[5, 10)``, point at 5) lies inside the merged run
      but overlaps neither.  The crossing count
      ``#(start < p) - #(stop <= p)`` over the raw wide events counts
      exactly the probes that strictly contain ``p``;
    * **point reference vs point probes** -- never overlap, coincident
      or not (``p < p`` fails on both sides of the half-open test).
    """
    out = np.empty(ref_starts.size, dtype=bool)
    wide = ref_stops > ref_starts
    starts_w = ref_starts[wide]
    stops_w = ref_stops[wide]
    hit = np.searchsorted(
        run_starts, stops_w, side="left"
    ) > np.searchsorted(run_ends, starts_w, side="right")
    if zero_positions.size:
        hit |= np.searchsorted(
            zero_positions, stops_w, side="left"
        ) > np.searchsorted(zero_positions, starts_w, side="right")
    out[wide] = hit
    points = ref_starts[~wide]
    out[~wide] = (
        np.searchsorted(wide_starts, points, side="left")
        - np.searchsorted(wide_stops, points, side="right")
    ) > 0
    return out
