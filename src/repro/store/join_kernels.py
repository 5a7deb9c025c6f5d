"""Vectorised genometric JOIN/MAP pair kernels over sorted block arrays.

These kernels turn the per-anchor Python loops of the genometric JOIN
and the per-reference aggregation of MAP into ``searchsorted``/merge
arithmetic over one chromosome's worth of :class:`~repro.store.columnar.
ChromBlock` arrays.  They operate on *plain numpy arrays* -- never on
region objects or plan nodes -- so the same functions run in the parent
process (columnar backend) and inside pool workers over shared-memory
views (parallel backend).

Conventions shared by every kernel here:

* the experiment side arrives in **left-sorted order**: ``e_starts``
  ascending, ``e_stops`` carrying the matching stop per row (i.e. the
  block's ``starts[left_order]`` / ``stops[left_order]``);
* returned experiment indices are **positions in that sorted order**;
  callers map them back through ``block.left_order`` to block rows;
* returned anchor/reference indices are plain row positions into the
  anchor arrays, in non-decreasing order;
* genometric gaps follow :meth:`GenomicRegion.distance`: negative for
  overlaps, ``0`` when adjacent, never defined across chromosomes
  (cross-chromosome pairs simply never reach a kernel).

Pair *order* is part of the contract, because downstream sample sorts
are stable and ties (identical output coordinates, different values)
must serialise exactly like the naive reference enumeration:

* with a finite DLE bound and no MD clause, pairs within one anchor come
  in left-sorted order (``NearestIndex.within`` order);
* with an MD clause or no DLE bound, pairs within one anchor come in
  ``(gap, left, right, position)`` order (``NearestIndex.nearest``
  order).
"""

from __future__ import annotations

import numpy as np

from repro.intervals.distance import stream_pair_mask

_EMPTY = np.empty(0, dtype=np.int64)


def expand_windows(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Expand per-anchor candidate windows ``[lo, hi)`` into pair arrays.

    Returns ``(anchor_rows, member_positions)`` where anchor ``i``
    contributes ``hi[i] - lo[i]`` consecutive pairs covering the
    positions ``lo[i] .. hi[i]-1``.  The classic ragged-window trick:
    one ``repeat`` for the anchors, offset arithmetic for the members.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    anchor_rows = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    members = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(lo, counts)
    )
    return anchor_rows, members


def _md_distance_bound(
    a_starts: np.ndarray,
    a_stops: np.ndarray,
    a_strands: np.ndarray,
    e_starts: np.ndarray,
    e_sorted_stops: np.ndarray,
    k: int,
    upstream: bool,
    downstream: bool,
) -> np.ndarray:
    """Per-anchor distance ``D`` guaranteeing >= k MD candidates within it.

    The k-th experiment start at-or-after the anchor's stop bounds the
    gap of k same-side candidates on the right; the k-th largest
    experiment stop at-or-before the anchor's start bounds k candidates
    on the left.  Directional clauses restrict candidates to one side
    (which side depends on the anchor's strand), so only that side's
    bound applies.  ``inf`` (no such bound -- fewer than k candidates on
    the relevant side) widens the window to the whole chromosome, which
    is exactly what MD semantics require.
    """
    m = e_starts.size
    right_kth = np.searchsorted(e_starts, a_stops, side="left") + (k - 1)
    gap_right = np.where(
        right_kth < m,
        e_starts[np.minimum(right_kth, m - 1)] - a_stops,
        np.inf,
    )
    left_kth = np.searchsorted(e_sorted_stops, a_starts, side="right") - k
    gap_left = np.where(
        left_kth >= 0,
        a_starts - e_sorted_stops[np.maximum(left_kth, 0)],
        np.inf,
    )
    if upstream and downstream:
        # Contradictory on every anchor with a strand; nothing bounds the
        # candidate pool, so fall back to full windows.
        return np.full(a_starts.size, np.inf)
    if upstream or downstream:
        # Upstream of a forward/unstranded anchor is the left side;
        # everything mirrors for reverse-strand anchors and DOWN.
        left_side = (a_strands >= 0) if upstream else (a_strands < 0)
        return np.where(left_side, gap_left, gap_right)
    return np.minimum(gap_left, gap_right)


def _group_ranks(groups: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal *groups* values."""
    boundaries = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    counts = np.diff(np.r_[boundaries, groups.size])
    return np.arange(groups.size, dtype=np.int64) - np.repeat(
        boundaries, counts
    )


def _anchor_min_gaps(a_rows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Per candidate, the smallest gap among its anchor's candidates.

    *a_rows* must be grouped by anchor, as :func:`expand_windows` lays
    them out, so this is one ``minimum.reduceat`` over the anchor runs.
    """
    run_starts = np.flatnonzero(np.r_[True, a_rows[1:] != a_rows[:-1]])
    counts = np.diff(np.r_[run_starts, a_rows.size])
    return np.repeat(np.minimum.reduceat(gaps, run_starts), counts)


def join_pairs(
    a_starts: np.ndarray,
    a_stops: np.ndarray,
    a_strands: np.ndarray,
    e_starts: np.ndarray,
    e_stops: np.ndarray,
    e_sorted_stops: np.ndarray | None = None,
    *,
    max_distance: int | None = None,
    min_distance: int | None = None,
    md_k: int | None = None,
    upstream: bool = False,
    downstream: bool = False,
) -> tuple:
    """All genometric join pairs on one chromosome.

    Anchor arrays are in block-row order; experiment arrays in
    left-sorted order (``e_sorted_stops`` -- stops sorted independently
    -- is only consulted when ``md_k`` is set).  Returns
    ``(anchor_rows, e_positions, gaps)`` honouring the module's ordering
    contract; *gaps* is int64.

    Clause semantics mirror :meth:`GenometricCondition.matches_for_anchor`:
    directional clauses filter the candidate pool first, MD(k) then keeps
    the k nearest per anchor (ties broken by ``(left, right, position)``),
    and DLE/DGE bounds apply last -- so an MD selection is *not* widened
    by discarding out-of-bound nearest candidates.
    """
    if a_starts.size == 0 or e_starts.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    max_width = int((e_stops - e_starts).max())

    if md_k is not None:
        if e_sorted_stops is None:
            e_sorted_stops = np.sort(e_stops)
        bound = _md_distance_bound(
            a_starts, a_stops, a_strands, e_starts, e_sorted_stops,
            md_k, upstream, downstream,
        )
        lo = np.searchsorted(
            e_starts, a_starts - bound - max_width, side="left"
        )
        hi = np.searchsorted(e_starts, a_stops + bound, side="right")
    elif max_distance is not None:
        lo = np.searchsorted(
            e_starts, a_starts - max_distance - max_width, side="left"
        )
        hi = np.searchsorted(e_starts, a_stops + max_distance, side="right")
        # A negative DLE bound (overlap-only join) can invert degenerate
        # windows; expand_windows needs hi >= lo.
        hi = np.maximum(hi, lo)
    else:
        lo = np.zeros(a_starts.size, dtype=np.int64)
        hi = np.full(a_starts.size, e_starts.size, dtype=np.int64)

    a_rows, e_pos = expand_windows(lo, hi)
    if a_rows.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    pair_a_starts = a_starts[a_rows]
    pair_a_stops = a_stops[a_rows]
    pair_e_starts = e_starts[e_pos]
    pair_e_stops = e_stops[e_pos]
    gaps = np.maximum(pair_a_starts, pair_e_starts) - np.minimum(
        pair_a_stops, pair_e_stops
    )

    keep = np.ones(a_rows.size, dtype=bool)
    if upstream:
        keep &= stream_pair_mask(
            a_strands[a_rows], pair_a_starts, pair_a_stops,
            pair_e_starts, pair_e_stops, upstream=True,
        )
    if downstream:
        keep &= stream_pair_mask(
            a_strands[a_rows], pair_a_starts, pair_a_stops,
            pair_e_starts, pair_e_stops, upstream=False,
        )

    if md_k is None:
        if max_distance is not None:
            keep &= gaps <= max_distance
        if min_distance is not None:
            keep &= gaps >= min_distance
        a_rows, e_pos, gaps = a_rows[keep], e_pos[keep], gaps[keep]
        if max_distance is None and a_rows.size:
            # The naive reference enumerates unbounded candidates in
            # nearest order; reproduce it for stable-sort tie fidelity.
            order = np.lexsort(
                (e_stops[e_pos], e_starts[e_pos], gaps, a_rows)
            )
            a_rows, e_pos, gaps = a_rows[order], e_pos[order], gaps[order]
        return a_rows, e_pos, gaps

    # MD(k): directional filter first, then the k nearest per anchor.
    a_rows, e_pos, gaps = a_rows[keep], e_pos[keep], gaps[keep]
    if a_rows.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    if md_k == 1:
        # Only candidates at their anchor's smallest gap can be picked;
        # dropping the rest keeps the survivors' relative order, so the
        # ranks and ties below are unchanged and the lexsort is small.
        near = gaps <= _anchor_min_gaps(a_rows, gaps)
        a_rows, e_pos, gaps = a_rows[near], e_pos[near], gaps[near]
    # lexsort is stable over the left-sorted candidate order, so ties in
    # (gap, left, right) fall back to sample position -- exactly the
    # NearestIndex.nearest tie-break.
    order = np.lexsort((e_stops[e_pos], e_starts[e_pos], gaps, a_rows))
    a_rows, e_pos, gaps = a_rows[order], e_pos[order], gaps[order]
    selected = _group_ranks(a_rows) < md_k
    a_rows, e_pos, gaps = a_rows[selected], e_pos[selected], gaps[selected]
    keep = np.ones(a_rows.size, dtype=bool)
    if max_distance is not None:
        keep &= gaps <= max_distance
    if min_distance is not None:
        keep &= gaps >= min_distance
    return a_rows[keep], e_pos[keep], gaps[keep]


def overlap_pairs(
    r_starts: np.ndarray,
    r_stops: np.ndarray,
    e_starts: np.ndarray,
    e_stops: np.ndarray,
) -> tuple:
    """All strictly-overlapping (reference, experiment) pairs.

    Reference arrays in block-row order, experiment arrays left-sorted.
    Overlap is exact :meth:`GenomicRegion.overlaps` semantics
    (``e.left < r.right and e.right > r.left``), which handles
    zero-length features on either side without correction terms --
    point probes overlap only strict containers, coincident points never
    overlap.  Returns ``(ref_rows, e_positions)`` with experiments in
    left-sorted order within each reference (the canonical MAP hit
    order).
    """
    if r_starts.size == 0 or e_starts.size == 0:
        return _EMPTY, _EMPTY
    max_width = int((e_stops - e_starts).max())
    lo = np.searchsorted(e_starts, r_starts - max_width, side="right")
    hi = np.searchsorted(e_starts, r_stops, side="left")
    hi = np.maximum(hi, lo)
    r_rows, e_pos = expand_windows(lo, hi)
    if r_rows.size == 0:
        return _EMPTY, _EMPTY
    keep = e_stops[e_pos] > r_starts[r_rows]
    return r_rows[keep], e_pos[keep]


def group_offsets(ref_rows: np.ndarray, n_refs: int) -> np.ndarray:
    """CSR-style offsets: pairs of reference ``i`` occupy
    ``offsets[i]:offsets[i+1]``.  *ref_rows* must be non-decreasing
    (which every kernel here guarantees)."""
    return np.searchsorted(
        ref_rows, np.arange(n_refs + 1, dtype=np.int64)
    )


def segment_counts(offsets: np.ndarray) -> np.ndarray:
    """Per-reference pair counts from :func:`group_offsets` offsets."""
    return np.diff(offsets)


def segment_reduce(
    values: np.ndarray, offsets: np.ndarray, how: str
) -> np.ndarray:
    """Reduce each offsets segment of *values* with ``sum``/``min``/``max``.

    Only non-empty segments are reduced (``reduceat`` misbehaves on
    empty ones); the returned array is aligned with segments and holds
    garbage at empty positions -- callers mask with the counts.  Integer
    sums are exact (associative); float sums are *not* bit-identical to
    sequential Python summation, so callers must not route
    order-sensitive float reductions here.
    """
    ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[how]
    counts = segment_counts(offsets)
    out = np.zeros(counts.size, dtype=values.dtype)
    nonempty = counts > 0
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_median_positions(
    values: np.ndarray, ref_rows: np.ndarray, offsets: np.ndarray
) -> tuple:
    """Positions of the middle element(s) of each sorted segment.

    Sorts *values* within each segment (stable, segment-major) and
    returns ``(sorted_values, lo_positions, hi_positions)`` where the
    median of segment ``i`` is ``sorted_values[lo[i]]`` for odd counts
    and the mean of ``sorted_values[lo[i]]``/``sorted_values[hi[i]]``
    for even counts.  Empty segments get positions clamped to 0; mask
    with the counts.
    """
    order = np.lexsort((values, ref_rows))
    sorted_values = values[order]
    counts = segment_counts(offsets)
    starts = offsets[:-1]
    lo = starts + np.maximum(counts - 1, 0) // 2
    hi = starts + np.maximum(counts, 1) // 2
    top = max(sorted_values.size - 1, 0)
    return sorted_values, np.minimum(lo, top), np.minimum(hi, top)
