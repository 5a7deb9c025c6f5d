"""Columnar region blocks and zone maps: the physical storage layer.

GMQL kernels used to rebuild per-chromosome numpy arrays from Python
region objects on *every* operator invocation.  This module materialises
each sample once into a struct-of-arrays :class:`SampleBlocks` -- per
chromosome ``starts``/``stops`` coordinate arrays plus lazily derived
sort orders -- and attaches a :class:`ZoneMap` (min/max coordinates and
the set of occupied genome bins per chromosome) so operators can prove
"nothing here can match" and skip whole chromosomes or bins without
touching a single region.

Everything is read from a sample's column view (:func:`column_view`),
never from region objects, and what is derived from one sample's rows --
a region list's view, its blocks per bin size and its typed value
columns (:func:`region_column`) -- is memoised on the rows themselves
(:class:`RegionMemo`), not on a dataset: operators that pass rows
through unchanged (metadata SELECT, EXTEND, ORDER by metadata, renames
and renumbering) hand their output what their operand already built,
so a derived dataset costs no rebuild.

The layer is storage-only: it never interprets operator semantics.
Engines ask a :class:`DatasetStore` (memoised on the dataset, see
:meth:`repro.gdm.dataset.Dataset.store`) for blocks and zone maps;
the zone-window test every pairwise operator shares lives here as
:func:`live_block_pairs`, and :func:`count_morsels` adds the bin-level
pruning only the counting identity can use.
"""

from __future__ import annotations

import hashlib
import threading
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.gdm.region import chromosome_sort_key
from repro.gdm.sample import (
    ColumnRows,
    RegionList,
    listed,
    region_list_columns,
    reset_rows_materialised,
    rows_materialised,
)
from repro.intervals.bins import DEFAULT_BIN_SIZE

#: Integer strand encoding used by block ``strands`` arrays: forward is
#: positive, reverse negative, unstranded zero.  Directional (UP/DOWN)
#: join kernels only ever test the sign (see
#: :func:`repro.intervals.distance.stream_pair_mask`).
STRAND_CODES = {"+": 1, "-": -1, "*": 0}

#: Rank of each strand code in ``str`` order (``'*' < '+' < '-'``),
#: indexed by ``code + 1``.
_STRAND_RANKS = np.array([2, 0, 1], dtype=np.int8)

_NO_ROWS = np.zeros(0, dtype=np.int64)

#: Process-wide block accounting, the one home of the block counters.
#: Individual stores live on (possibly short-lived) derived datasets --
#: a COVER over a region SELECT's result builds its blocks through the
#: SELECT output's store, which is garbage once the query returns -- so
#: per-store counts would under-count.  These totals survive the stores
#: that fed them: ``repro run --stats`` reports their delta over the run
#: and the server's ``/stats`` their running total.  Concurrent queries
#: (server threads, background persists) all count here, so every
#: access holds :data:`_COUNTERS_LOCK`.
_PROCESS_COUNTERS = {
    "blocks_built": 0,
    "blocks_mapped": 0,
    "blocks_evicted": 0,
}
_COUNTERS_LOCK = threading.Lock()


def _count(name: str) -> None:
    """Add one to a process-wide block counter."""
    with _COUNTERS_LOCK:
        _PROCESS_COUNTERS[name] += 1


def reset_store_counters() -> None:
    """Zero the process-wide counters (test/benchmark isolation)."""
    with _COUNTERS_LOCK:
        for name in _PROCESS_COUNTERS:
            _PROCESS_COUNTERS[name] = 0
    reset_rows_materialised()


def store_counters() -> dict:
    """Snapshot of the process-wide block counters, plus
    ``rows_materialised``: region objects built from samples born as
    columns (:func:`repro.gdm.sample.rows_materialised`)."""
    with _COUNTERS_LOCK:
        counters = dict(_PROCESS_COUNTERS)
    counters["rows_materialised"] = rows_materialised()
    return counters


def chromosome_ranks(chroms) -> np.ndarray:
    """Dense natural-order rank of each name in *chroms* (names may repeat).

    Names whose :func:`~repro.gdm.region.chromosome_sort_key` ties
    (``chr1`` and ``chr01``) share a rank, exactly as a Python sort by
    that key treats them.
    """
    keys = {chrom: chromosome_sort_key(chrom) for chrom in chroms}
    ranks: dict = {}
    rank, previous = -1, None
    for chrom in sorted(keys, key=keys.__getitem__):
        if keys[chrom] != previous:
            rank, previous = rank + 1, keys[chrom]
        ranks[chrom] = rank
    return np.array([ranks[chrom] for chrom in chroms], dtype=np.int64)


def genome_order(
    chrom_ranks: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    strand_codes: np.ndarray,
    ties: np.ndarray | None = None,
) -> np.ndarray:
    """The row permutation a stable sort by ``GenomicRegion.sort_key`` makes.

    Rows are given as columns: *chrom_ranks* from
    :func:`chromosome_ranks`, coordinates, and :data:`STRAND_CODES`
    strand codes.  ``np.lexsort`` is stable, so rows with equal keys
    keep their input order, as they do under ``list.sort`` -- or, given
    *ties*, are ordered by it first: the way to rank rows by an
    enumeration order the input order does not follow.
    """
    keys = (_STRAND_RANKS[strand_codes + 1], rights, lefts, chrom_ranks)
    return np.lexsort(keys if ties is None else (ties, *keys))


def occupied_bins(
    starts: np.ndarray, stops: np.ndarray, bin_size: int
) -> np.ndarray:
    """Sorted unique bin indices touched by ``[start, stop)`` intervals.

    Every bin an interval overlaps is included (a region spanning bins
    3..7 occupies all five), which is what makes zone-map pruning sound:
    two overlapping regions always share at least one occupied bin.
    Zero-length intervals occupy the bin containing their point.
    """
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    lo = starts // bin_size
    hi = np.maximum(stops - 1, starts) // bin_size
    pieces = [lo, hi]
    spanning = hi - lo >= 2
    if spanning.any():
        pieces.extend(
            np.arange(l + 1, h)
            for l, h in zip(lo[spanning], hi[spanning])
        )
    return np.unique(np.concatenate(pieces))


class ZoneEntry:
    """Zone-map statistics for one chromosome of one block set."""

    __slots__ = ("chrom", "count", "min_start", "max_start", "min_stop",
                 "max_stop", "bins")

    def __init__(
        self,
        chrom: str,
        starts: np.ndarray,
        stops: np.ndarray,
        bin_size: int,
    ) -> None:
        self.chrom = chrom
        self.count = int(starts.size)
        self.min_start = int(starts.min())
        self.max_start = int(starts.max())
        self.min_stop = int(stops.min())
        self.max_stop = int(stops.max())
        self.bins = occupied_bins(starts, stops, bin_size)

    @property
    def partitions(self) -> int:
        """Number of occupied (chromosome, bin) partitions."""
        return int(self.bins.size)

    @classmethod
    def from_stats(
        cls,
        chrom: str,
        count: int,
        min_start: int,
        max_start: int,
        min_stop: int,
        max_stop: int,
        bins: np.ndarray,
    ) -> "ZoneEntry":
        """Rebuild an entry from persisted statistics (no array scans).

        The loader in :mod:`repro.store.persist` uses this so opening a
        store never touches coordinate pages just to recompute min/max.
        """
        entry = cls.__new__(cls)
        entry.chrom = chrom
        entry.count = int(count)
        entry.min_start = int(min_start)
        entry.max_start = int(max_start)
        entry.min_stop = int(min_stop)
        entry.max_stop = int(max_stop)
        entry.bins = bins
        return entry

    def window_overlaps(self, lo: int, hi: int) -> bool:
        """Could any region here overlap the half-open window ``[lo, hi)``?

        Zero-length point features make the comparison inclusive on the
        start side: a point at ``lo`` is still a candidate.
        """
        return self.min_start < hi and self.max_stop > lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ZoneEntry({self.chrom!r}, n={self.count},"
            f" [{self.min_start},{self.max_stop}), bins={self.partitions})"
        )


class ZoneMap:
    """Per-chromosome zone entries for one sample (or one dataset)."""

    __slots__ = ("bin_size", "entries")

    def __init__(self, bin_size: int) -> None:
        self.bin_size = bin_size
        self.entries: dict = {}

    def entry(self, chrom: str) -> ZoneEntry | None:
        return self.entries.get(chrom)

    @property
    def chromosomes(self) -> tuple:
        return tuple(self.entries)

    def partitions(self) -> int:
        """Total occupied (chromosome, bin) partitions across chromosomes."""
        return sum(entry.partitions for entry in self.entries.values())

    def region_count(self) -> int:
        return sum(entry.count for entry in self.entries.values())


class ChromBlock:
    """Struct-of-arrays for one chromosome of one sample.

    ``starts``/``stops`` are in the sample's region order; ``index`` maps
    each row back to its position in ``sample.regions`` so kernels can
    rehydrate region objects only for emitted results.  Sorted views are
    derived lazily and memoised because only probe-side kernels need
    them.
    """

    __slots__ = ("chrom", "starts", "stops", "strands", "index",
                 "_sorted_starts", "_sorted_stops", "_left_order",
                 "_left_stops", "_max_width", "_zero_positions")

    def __init__(
        self, chrom: str, starts: np.ndarray, stops: np.ndarray,
        index: np.ndarray, strands: np.ndarray | None = None,
    ) -> None:
        self.chrom = chrom
        self.starts = starts
        self.stops = stops
        self.strands = (
            strands
            if strands is not None
            else np.zeros(starts.size, dtype=np.int8)
        )
        self.index = index
        self._sorted_starts = None
        self._sorted_stops = None
        self._left_order = None
        self._left_stops = None
        self._max_width = None
        self._zero_positions = None

    def __len__(self) -> int:
        return int(self.starts.size)

    @property
    def sorted_starts(self) -> np.ndarray:
        """Start coordinates in ascending order (memoised)."""
        if self._sorted_starts is None:
            self._sorted_starts = np.sort(self.starts)
        return self._sorted_starts

    @property
    def sorted_stops(self) -> np.ndarray:
        """Stop coordinates in ascending order (memoised, independent)."""
        if self._sorted_stops is None:
            self._sorted_stops = np.sort(self.stops)
        return self._sorted_stops

    @property
    def left_order(self) -> np.ndarray:
        """Row permutation sorting by ``(start, stop)`` (memoised)."""
        if self._left_order is None:
            self._left_order = np.lexsort((self.stops, self.starts))
        return self._left_order

    @property
    def left_stops(self) -> np.ndarray:
        """Stop coordinates permuted by :attr:`left_order` (memoised).

        Together with :attr:`sorted_starts` (whose values coincide with
        ``starts[left_order]``: both are the starts in ascending order)
        this is the left-sorted experiment view the pair kernels
        consume.  Memoised so the shared-memory shipper sees a stable
        array identity per block.
        """
        if self._left_stops is None:
            self._left_stops = self.stops[self.left_order]
        return self._left_stops

    @property
    def zero_positions(self) -> np.ndarray:
        """Sorted positions of zero-length regions (memoised).

        Probe-side kernels need these to repair the searchsorted counting
        identity for point references; see
        :func:`point_feature_adjustment`.
        """
        if self._zero_positions is None:
            self._zero_positions = np.sort(
                self.starts[self.stops == self.starts]
            )
        return self._zero_positions

    @property
    def max_width(self) -> int:
        """The widest region on this chromosome (window-join bound)."""
        if self._max_width is None:
            self._max_width = int((self.stops - self.starts).max())
        return self._max_width


class SampleBlocks:
    """All columnar blocks of one sample's rows plus its zone map.

    ``sample_id`` is the id of the sample the blocks were first built
    for; samples sharing the rows share the blocks whatever their own
    ids.  *rows* are the sample's held rows, read through their column
    view (:func:`column_view`).
    """

    __slots__ = ("sample_id", "n_regions", "chroms", "zone_map")

    def __init__(self, sample_id, rows, bin_size: int) -> None:
        self._fill(sample_id, *_row_columns(rows), bin_size)

    @classmethod
    def from_columns(
        cls, sample_id, runs: list, lefts: np.ndarray, rights: np.ndarray,
        strands: np.ndarray, bin_size: int,
    ) -> "SampleBlocks":
        """Blocks of rows given as columns in row order: the chromosome
        runs ``[(chrom, count), ...]``, the coordinates and the
        :data:`STRAND_CODES` strand codes.

        One block per chromosome in first-seen order, its rows in
        ascending row order.  A chromosome held in one run gets slices
        of the columns, not copies.
        """
        blocks = cls.__new__(cls)
        blocks._fill(sample_id, runs, lefts, rights, strands, bin_size)
        return blocks

    def _fill(self, sample_id, runs, lefts, rights, strands,
              bin_size: int) -> None:
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        strands = np.asarray(strands, dtype=np.int8)
        self.sample_id = sample_id
        self.n_regions = int(lefts.size)
        self.chroms = {}
        self.zone_map = ZoneMap(bin_size)
        spans: dict = {}  # chrom -> [(first row, end row), ...]
        position = 0
        for chrom, count in runs:
            if count:
                spans.setdefault(chrom, []).append(
                    (position, position + count)
                )
                position += count
        for chrom, pieces in spans.items():
            if len(pieces) == 1:
                (first, end), = pieces
                index = np.arange(first, end, dtype=np.int64)
                starts, stops = lefts[first:end], rights[first:end]
                codes = strands[first:end]
            else:
                index = np.concatenate([
                    np.arange(first, end, dtype=np.int64)
                    for first, end in pieces
                ])
                starts, stops = lefts[index], rights[index]
                codes = strands[index]
            self.chroms[chrom] = ChromBlock(chrom, starts, stops, index, codes)
            self.zone_map.entries[chrom] = ZoneEntry(
                chrom, starts, stops, bin_size
            )

    @classmethod
    def from_parts(
        cls, sample_id, n_regions: int, chroms: dict, zone_map: ZoneMap
    ) -> "SampleBlocks":
        """Assemble blocks from pre-built parts (the persisted-store path).

        :mod:`repro.store.persist` reconstructs chromosome blocks as
        zero-copy views into a memory-mapped segment file and hands them
        here; nothing is scanned or copied.
        """
        blocks = cls.__new__(cls)
        blocks.sample_id = sample_id
        blocks.n_regions = n_regions
        blocks.chroms = chroms
        blocks.zone_map = zone_map
        return blocks

    def nbytes(self) -> int:
        """Bytes held by all materialised arrays (residency accounting)."""
        total = 0
        for block in self.chroms.values():
            for name in ChromBlock.__slots__:
                if name == "chrom":
                    continue
                value = getattr(block, name)
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        for entry in self.zone_map.entries.values():
            total += entry.bins.nbytes
        return total

    def block(self, chrom: str) -> ChromBlock | None:
        return self.chroms.get(chrom)


# -- the per-region-list memo ---------------------------------------------------


_UNSET = object()


class RegionMemo:
    """Everything the store derives from one sample's rows, held by them.

    ``view`` is a region list's column view (:func:`column_view`),
    ``blocks`` maps a bin size to the rows' :class:`SampleBlocks` and
    ``columns`` maps a field to its :class:`ValueColumn`.  Blocks, value
    columns and operator outputs share the view's lists and arrays, so
    no column of a view is ever mutated in place.  Blocks built in
    memory are charged to the :class:`~repro.store.persist.ResidencyLedger`
    with this memo as their owner: the charge is discharged when the
    memo -- that is, its rows -- dies, and a spill drops the blocks.
    """

    __slots__ = ("view", "blocks", "columns", "__weakref__")

    def __init__(self) -> None:
        self.view = _UNSET
        self.blocks: dict = {}
        self.columns: dict = {}

    def _evict_resident(self, bin_size) -> None:
        """Ledger spill callback: drop the blocks of one bin size."""
        if self.blocks.pop(bin_size, None) is not None:
            _count("blocks_evicted")


_ATTACH_LOCK = threading.Lock()


def region_memo(rows) -> RegionMemo | None:
    """The memo of a sample's held *rows*, attached on first use.

    *rows* is a :class:`~repro.gdm.sample.RegionList` or a
    :class:`~repro.gdm.sample.ColumnRows`, whose memo the list it builds
    adopts.  ``None`` for anything else (a plain list a caller assigned
    to ``sample.regions``): such a list cannot carry a memo, so
    everything derived from it is rebuilt on request.
    """
    if not isinstance(rows, (RegionList, ColumnRows)):
        return None
    memo = rows.memo
    if memo is None:
        with _ATTACH_LOCK:
            memo = rows.memo
            if memo is None:
                memo = rows.memo = RegionMemo()
    return memo


def column_view(rows) -> ColumnRows | None:
    """:meth:`~repro.gdm.sample.Sample.columns` of a sample's held *rows*.

    A :class:`~repro.gdm.sample.ColumnRows` is its own view; a region
    list's is read once and memoised in its :class:`RegionMemo` (a plain
    list, which carries no memo, is read on every call).
    """
    if isinstance(rows, ColumnRows):
        return rows
    memo = region_memo(rows)
    if memo is None:
        return region_list_columns(rows)
    view = memo.view
    if view is _UNSET:
        view = region_list_columns(rows)
        with _ATTACH_LOCK:
            if memo.view is _UNSET:
                memo.view = view
            view = memo.view
    return view


def _columns_of(rows) -> ColumnRows:
    """The column view of *rows*; ragged rows, which have none, raise."""
    view = column_view(rows)
    if view is None:
        raise DatasetError(
            "rows whose value tuples differ in width have no column view"
        )
    return view


def _strand_codes(strands) -> np.ndarray:
    """The :data:`STRAND_CODES` of a column of strand symbols."""
    return np.fromiter(
        map(STRAND_CODES.__getitem__, strands), np.int8, len(strands)
    )


def _row_columns(rows) -> tuple:
    """``(runs, lefts, rights, strand codes)`` of a sample's held *rows*,
    read from their column view."""
    view = _columns_of(rows)
    return view.runs, view.lefts, view.rights, _strand_codes(view.strands)


class ValueColumn:
    """One column of a sample's column view (its own list or array,
    shared), with each typed view derived on first request and memoised,
    so a MAP aggregate or a SELECT predicate over resident rows reads
    the rows once.
    """

    __slots__ = ("column", "_views")

    def __init__(self, column) -> None:
        self.column = column
        self._views: dict = {}

    def _view(self, name, build):
        view = self._views.get(name, _UNSET)
        if view is _UNSET:
            view = self._views[name] = build()
        return view

    def _numeric(self) -> bool:
        column = self.column
        return isinstance(column, np.ndarray) and column.dtype.kind in "iuf"

    @property
    def values(self) -> list:
        """The Python value of every row, in row order."""
        return self._view("values", lambda: listed(self.column))

    def has_missing(self) -> bool:
        return self._view("missing", lambda: not self._numeric() and any(
            value is None for value in self.values
        ))

    def exact(self, type_name: str | None) -> np.ndarray | None:
        """The values as int64 (``INT``) or float64 (``FLOAT``), or ``None``.

        ``None`` for any other type, a missing value, or a value the
        dtype cannot hold: the precondition of every exact vectorised
        reduction.  An array of that dtype is returned as it is.
        """
        def build():
            if type_name not in ("INT", "FLOAT") or self.has_missing():
                return None
            dtype = np.int64 if type_name == "INT" else np.float64
            if self._numeric() and self.column.dtype == dtype:
                return self.column
            try:
                return np.asarray(self.values, dtype=dtype)
            except (OverflowError, ValueError):
                return None

        return self._view(("exact", type_name), build)

    def floats(self) -> np.ndarray:
        """float64 values with NaN for missing ones (numeric predicates)."""
        return self._view("floats", lambda: np.array(
            [np.nan if value is None else float(value)
             for value in self.values],
            dtype=np.float64,
        ))

    def strings(self) -> np.ndarray:
        """The values as a numpy string array, ``""`` for missing ones."""
        return self._view("strings", lambda: np.array(
            ["" if value is None else str(value) for value in self.values]
        ))

    def all_float(self) -> bool:
        """Whether every value is a Python ``float``."""
        return self._view(
            "all_float",
            lambda: all(isinstance(value, float) for value in self.values),
        )


def region_column(rows, field) -> ValueColumn:
    """The (memoised) :class:`ValueColumn` of one field of a sample's
    held *rows*, read from their column view.

    *field* is a fixed attribute name (``"left"``, ``"right"``,
    ``"chrom"``, ``"strand"``) or an index into the variable values.
    The one column extraction every columnar operator uses.
    """
    memo = region_memo(rows)
    column = memo.columns.get(field) if memo is not None else None
    if column is None:
        view = _columns_of(rows)
        if isinstance(field, int):
            # An empty region list's view has no value column at all.
            values = view.values[field] if len(view) else []
        elif field == "chrom":
            values = list(chain.from_iterable(
                repeat(chrom, count) for chrom, count in view.runs
            ))
        else:
            values = getattr(view, field + "s")
        column = ValueColumn(values)
        if memo is not None:
            memo.columns[field] = column
    return column


def point_feature_adjustment(
    zero_positions: np.ndarray,
    ref_starts: np.ndarray,
    ref_stops: np.ndarray,
) -> np.ndarray | int:
    """Correction restoring exact overlap semantics for point references.

    The shared counting identity ``|probes starting before ref.stop| -
    |probes ending at-or-before ref.start|`` tallies every probe exactly
    once -- except a zero-length probe sitting exactly on a zero-length
    reference, which is subtracted without ever having been added (it
    neither starts before the reference "ends" nor overlaps it), driving
    the count to -1.  This returns the per-reference count of coincident
    zero-length probes to add back; 0 when no reference is a point or
    the probe side has no zero-length regions.
    """
    if zero_positions.size == 0:
        return 0
    point = ref_stops == ref_starts
    if not point.any():
        return 0
    extra = np.zeros(ref_starts.size, dtype=np.int64)
    positions = ref_starts[point]
    extra[point] = np.searchsorted(
        zero_positions, positions, side="right"
    ) - np.searchsorted(zero_positions, positions, side="left")
    return extra


def overlap_counts(
    ref_starts: np.ndarray,
    ref_stops: np.ndarray,
    probe_sorted_starts: np.ndarray,
    probe_sorted_stops: np.ndarray,
    probe_zero_positions: np.ndarray,
) -> np.ndarray:
    """Per-reference overlap counts against one chromosome's probes.

    The searchsorted counting identity: ``|probes starting before
    ref.stop| - |probes ending at-or-before ref.start|``, repaired for
    point references by :func:`point_feature_adjustment`.
    """
    started = np.searchsorted(probe_sorted_starts, ref_stops, side="left")
    ended = np.searchsorted(probe_sorted_stops, ref_starts, side="right")
    return started - ended + point_feature_adjustment(
        probe_zero_positions, ref_starts, ref_stops
    )


def live_block_pairs(
    left: SampleBlocks, right: SampleBlocks, margin: int | None = 0
) -> tuple:
    """Chromosome block pairs the zone maps cannot rule out.

    Returns ``(pairs, pruned)``: one ``(left_block, right_block)`` per
    chromosome both sides hold whose *left* extent, widened by *margin*
    on each side, meets the *right* extent; *pruned* counts the
    left-side partitions skipped.  ``margin=None`` (a join with no
    distance bound) keeps every shared chromosome.
    """
    pairs = []
    pruned = 0
    for chrom, block in left.chroms.items():
        entry = left.zone_map.entry(chrom)
        other = right.zone_map.entry(chrom)
        if other is None or (
            margin is not None
            and not other.window_overlaps(
                entry.min_start - margin, entry.max_stop + margin
            )
        ):
            pruned += entry.partitions
            continue
        pairs.append((block, right.chroms[chrom]))
    return pairs, pruned


def count_morsels(
    ref_blocks: SampleBlocks, probe_blocks: SampleBlocks
) -> tuple:
    """Plan :func:`overlap_counts` calls for one sample pair.

    Returns ``(morsels, partitions_pruned)``: one ``(index, arrays)``
    per reference chromosome the probe zone map cannot rule out --
    *index* the reference sample positions the counts belong to,
    *arrays* the :func:`overlap_counts` arguments -- and the number of
    (chromosome, bin) partitions of the reference side the probe zone
    map proved empty, so no kernel ever touches them.
    """
    morsels = []
    block_pairs, pruned = live_block_pairs(ref_blocks, probe_blocks)
    bin_size = probe_blocks.zone_map.bin_size
    for block, probe_block in block_pairs:
        ref_bins = ref_blocks.zone_map.entry(block.chrom).bins
        probe_bins = probe_blocks.zone_map.entry(block.chrom).bins
        starts, stops, index = block.starts, block.stops, block.index
        dead = np.setdiff1d(ref_bins, probe_bins, assume_unique=True)
        if dead.size:
            pruned += int(dead.size)
            # A reference can only overlap a probe when some occupied
            # probe bin falls inside the reference's own bin span.
            lo_bins = starts // bin_size
            hi_bins = np.maximum(stops - 1, starts) // bin_size
            occupied = np.searchsorted(
                probe_bins, hi_bins, side="right"
            ) - np.searchsorted(probe_bins, lo_bins, side="left")
            live = occupied > 0
            if not live.all():
                starts, stops, index = starts[live], stops[live], index[live]
        if index.size == 0:
            continue
        morsels.append((index, (
            starts, stops, probe_block.sorted_starts,
            probe_block.sorted_stops, probe_block.zero_positions,
        )))
    return morsels, pruned


def count_overlaps_blocks(
    ref_blocks: SampleBlocks, probe_blocks: SampleBlocks
) -> tuple:
    """Per-reference overlap counts with zone-map pruning.

    Returns ``(counts, partitions_pruned)``: *counts* is aligned with the
    reference sample's region order; see :func:`count_morsels` for what
    is pruned.
    """
    counts = np.zeros(ref_blocks.n_regions, dtype=np.int64)
    morsels, pruned = count_morsels(ref_blocks, probe_blocks)
    for index, arrays in morsels:
        counts[index] = overlap_counts(*arrays)
    return counts, pruned


#: ``str(n)`` for the string lengths :func:`_update_strings` meets most.
_LENGTH_TEXT = tuple(map(str, range(256)))


def _update_strings(h, strings: list) -> None:
    """Hash a string list injectively: lengths first, then the bodies.

    A length is written through :data:`_LENGTH_TEXT`, or with ``str``
    when some string is longer than that table -- the same bytes."""
    try:
        lengths = ",".join(map(_LENGTH_TEXT.__getitem__, map(len, strings)))
    except IndexError:
        lengths = ",".join(map(str, map(len, strings)))
    h.update(lengths.encode())
    h.update(";".encode())
    h.update("".join(strings).encode())


def _update_column(h, column: list, count: int) -> None:
    """Hash one attribute column with explicit per-value type tags.

    The tag string makes values of different types distinct even when
    their byte encodings coincide (``1`` vs ``1.0`` vs ``True``), so
    each homogeneous column can use the cheapest faithful encoding:
    float columns hash their IEEE bytes, int columns their fixed-width
    two's complement, string columns a length-prefixed concatenation.
    Mixed, ``None``-bearing, oversized-int and exotic columns fall back
    to ``repr``, which is always faithful, just slower.
    """
    types = set(map(type, column))
    if len(types) == 1:
        tag = _TYPE_TAGS.get(types.pop(), "?")
        h.update((tag * count).encode())
        h.update(b";")
        if tag == "f":
            h.update(np.fromiter(column, np.float64, count).tobytes())
            return
        if tag == "i":
            try:
                h.update(np.fromiter(column, np.int64, count).tobytes())
                return
            except OverflowError:
                pass  # ints beyond int64: take the exact repr path
        elif tag == "s":
            _update_strings(h, column)
            return
    else:
        h.update("".join(
            _TYPE_TAGS.get(type(value), "?") for value in column
        ).encode())
        h.update(b";")
    h.update(";".join(map(repr, column)).encode())


#: Type tags for :func:`_update_column`; ``bool`` gets its own tag so it
#: never aliases ``int`` (``repr`` fallback handles its values).
_TYPE_TAGS = {float: "f", int: "i", str: "s", bool: "b", type(None): "n"}


def _update_coordinates(h, lefts, rights) -> None:
    """Hash coordinates as int64 bytes, or as text beyond int64."""
    try:
        coordinates = (
            np.asarray(lefts, dtype=np.int64).tobytes(),
            np.asarray(rights, dtype=np.int64).tobytes(),
        )
    except OverflowError:  # coordinates beyond int64
        coordinates = (";".join(
            f"{left}-{right}"
            for left, right in zip(listed(lefts), listed(rights))
        ).encode(),)
    for piece in coordinates:
        h.update(piece)


def _update_ragged(h, regions) -> None:
    """Hash one sample's region objects whose value tuples differ in
    width (only possible with validation off), which have no column
    view: exhaustive per-region hashing of the values."""
    _update_coordinates(
        h, [r.left for r in regions], [r.right for r in regions]
    )
    _update_strings(h, [r.chrom for r in regions])
    _update_strings(h, [r.strand for r in regions])
    h.update(b"|values:ragged;")
    h.update(";".join(repr(r.values) for r in regions).encode())


def _update_column_rows(h, rows: ColumnRows, count: int) -> None:
    """Hash one sample's column view (recipe v3, see
    :meth:`DatasetStore.digest`)."""
    _update_coordinates(h, rows.lefts, rows.rights)
    runs = [(chrom, n) for chrom, n in rows.runs if n]
    h.update(",".join(
        ",".join([str(len(chrom))] * n) for chrom, n in runs
    ).encode())
    h.update(b";")
    h.update("".join(chrom * n for chrom, n in runs).encode())
    _update_strings(h, listed(rows.strands))
    h.update(f"|values:{len(rows.values)};".encode())
    for column in rows.values:
        _update_column(h, listed(column), count)


class _StoreContents:
    """What a store reads of its dataset: the schema and the live sample map.

    Holding these rather than the :class:`~repro.gdm.dataset.Dataset`
    keeps the dataset -> store memo acyclic, so a dropped derived
    dataset -- and with it the memos of region lists only it held -- is
    freed by reference counting, not at the next full collection.
    """

    __slots__ = ("schema", "_samples")

    def __init__(self, dataset) -> None:
        self.schema = dataset.schema
        self._samples = dataset._samples

    def __iter__(self) -> Iterator:
        for sample_id in sorted(self._samples):
            yield self._samples[sample_id]

    def region_count(self) -> int:
        return sum(len(sample) for sample in self._samples.values())


class DatasetStore:
    """Columnar blocks, zone maps and a content digest for one dataset.

    Memoised on the owning :class:`~repro.gdm.dataset.Dataset` (see
    :meth:`Dataset.store`); the dataset invalidates its stores when
    samples are added, so a store always describes the content it was
    derived from.  Per-sample blocks are not the store's: they live in
    each region list's :class:`RegionMemo`, so every dataset sharing a
    list -- whatever its store -- shares them.  The store itself holds
    only dataset-wide state: the union blocks, the zone map, the digest
    and the persisted segments.

    With a *root* configured (``--store-dir`` /
    :func:`repro.store.persist.set_store_root`), a block request the
    region list's memo cannot serve first tries the persisted
    content-addressed store: a hit returns zero-copy ``np.memmap`` views
    built by :class:`repro.store.persist.PersistedStore` (counted as
    ``blocks_mapped`` in :func:`store_counters`), a miss builds in
    memory and triggers a one-time persist -- synchronous when *sync*
    resolves true, otherwise in a background thread.  In-memory built
    blocks are charged against the process-wide
    :class:`~repro.store.persist.ResidencyLedger` so a budget can spill
    the least-recently-used blocks instead of exhausting RAM.
    """

    def __init__(
        self,
        dataset,
        bin_size: int | None = None,
        root: str | None = None,
        sync: bool | None = None,
    ) -> None:
        from repro.store import persist

        self._dataset = _StoreContents(dataset)
        self.bin_size = int(bin_size or DEFAULT_BIN_SIZE)
        self.root = root if root is not None else persist.store_root()
        self.sync = persist.persist_sync_default() if sync is None else sync
        self._union: SampleBlocks | None = None
        self._zone_map: ZoneMap | None = None
        self._digest: str | None = None
        self._persisted = None
        self._persisted_checked = False
        self._persist_thread = None

    # -- persisted-store plumbing --------------------------------------------

    def _persisted_store(self):
        """The opened :class:`PersistedStore`, or ``None`` (memoised)."""
        if not self._persisted_checked:
            self._persisted_checked = True
            if self.root is not None:
                from repro.store.persist import PersistedStore

                self._persisted = PersistedStore.open(
                    self.root, self.digest(), self.bin_size
                )
        return self._persisted

    def _mapped_blocks(self, key, n_regions: int):
        """Blocks for *key* served from persisted segments, or ``None``."""
        persisted = self._persisted_store()
        if persisted is None:
            return None
        blocks = persisted.sample_blocks(key, n_regions)
        if blocks is not None:
            _count("blocks_mapped")
        return blocks

    def _schedule_persist(self) -> None:
        """Persist this store to its root once (sync or background)."""
        if self.root is None or self._persist_thread is not None:
            return
        if self._persisted_store() is not None:
            return
        from repro.store.persist import persist_store

        if self.sync:
            self._persist_thread = True
            persist_store(self)
            # Serve every later block request from the fresh segments.
            self._persisted_checked = False
            self._persisted = None
            return

        def _persist() -> None:
            try:
                persist_store(self)
            except OSError:
                # Background persistence is best-effort: a full disk or
                # revoked permission must never fail the query that
                # triggered it.  The next process retries.
                pass

        thread = threading.Thread(
            target=_persist, name="repro-store-persist", daemon=True
        )
        self._persist_thread = thread
        thread.start()

    def wait_for_persist(self, timeout: float | None = None) -> None:
        """Block until a background persist (if any) finished."""
        thread = self._persist_thread
        if thread is not None and thread is not True:
            thread.join(timeout)

    def _evict_resident(self, key) -> None:
        """Drop the union blocks (ledger spill callback).

        A persisted store re-serves them as mmap views on the next
        request; an unpersisted one rebuilds them from the samples'
        rows.  The dataset-level zone map survives -- it is small and
        plan-time pruning depends on it.
        """
        if self._union is not None:
            self._union = None
            _count("blocks_evicted")

    # -- block access ---------------------------------------------------------

    def _built(self, owner, key, blocks: SampleBlocks) -> None:
        """Account an in-memory build: counters, ledger charge, persist."""
        from repro.store.persist import residency_ledger

        _count("blocks_built")
        if owner is not None:
            residency_ledger().charge(owner, key, blocks.nbytes())
        self._schedule_persist()

    def blocks(self, sample) -> SampleBlocks:
        """The :class:`SampleBlocks` of one member sample.

        The one way to get them: the region list's memo first, then the
        persisted root, then an in-memory build, memoised on the list.
        A rooted store serving memoised blocks still persists itself
        once, like one that built them.
        """
        from repro.store.persist import residency_ledger

        rows = sample.held_rows()
        memo = region_memo(rows)
        blocks = memo.blocks.get(self.bin_size) if memo is not None else None
        if blocks is not None:
            residency_ledger().touch(memo, self.bin_size)
            self._schedule_persist()
            return blocks
        blocks = self._mapped_blocks(sample.id, len(rows))
        if blocks is not None:
            if memo is not None:
                memo.blocks[self.bin_size] = blocks
            return blocks
        blocks = SampleBlocks(sample.id, rows, self.bin_size)
        if memo is not None:
            memo.blocks[self.bin_size] = blocks
        self._built(memo, self.bin_size, blocks)
        return blocks

    def union_blocks(self) -> SampleBlocks:
        """Blocks over *all* regions of the dataset (DIFFERENCE masks)."""
        from repro.store.persist import UNION_KEY, residency_ledger

        union = self._union
        if union is not None:
            residency_ledger().touch(self, UNION_KEY)
            return union
        union = self._mapped_blocks(None, self._dataset.region_count())
        if union is None:
            columns = [
                _row_columns(sample.held_rows()) for sample in self._dataset
            ]
            lefts, rights, strands = (
                np.concatenate([part[field] for part in columns] or [_NO_ROWS])
                for field in (1, 2, 3)
            )
            union = SampleBlocks.from_columns(
                None, [run for part in columns for run in part[0]],
                lefts, rights, strands, self.bin_size,
            )
            self._union = union
            self._built(self, UNION_KEY, union)
        else:
            self._union = union
        return union

    def zone_map(self) -> ZoneMap:
        """The dataset-level zone map (union of all samples)."""
        if self._zone_map is None:
            self._zone_map = self.union_blocks().zone_map
        return self._zone_map

    def partitions(self) -> int:
        """Occupied (chromosome, bin) partitions across the dataset."""
        return self.zone_map().partitions()

    def _sample_memos(self) -> list:
        memos = (getattr(s.held_rows(), "memo", None) for s in self._dataset)
        return [memo for memo in memos if memo is not None]

    def resident_bytes(self) -> int:
        """Bytes of block arrays currently materialised for this dataset.

        Counts the union blocks and, at this store's bin size, the
        blocks memoised on its samples' region lists (a list shared with
        another dataset counts for both).  Memory-mapped blocks count
        zero real bytes here: their pages belong to the OS page cache,
        not this process's working set.
        """
        candidates = [
            memo.blocks.get(self.bin_size) for memo in self._sample_memos()
        ]
        candidates.append(self._union)
        total = 0
        for blocks in candidates:
            if blocks is None:
                continue
            for block in blocks.chroms.values():
                base = block.starts
                while isinstance(getattr(base, "base", None), np.ndarray):
                    base = base.base
                if isinstance(base, np.memmap):
                    continue
                total += blocks.nbytes()
                break
        return total

    def stats(self) -> dict:
        """Observability snapshot of this store's residency (block
        counts are process-wide: :func:`store_counters`)."""
        persisted = self._persisted_store()
        return {
            "resident_bytes": self.resident_bytes(),
            "persisted": (
                str(persisted.directory) if persisted is not None else None
            ),
        }

    def digest(self) -> str:
        """Content digest over schema, samples, metadata and regions.

        Deliberately excludes the dataset *name*: operators rename
        results freely and a rename does not change content, so
        fingerprint-keyed caches stay valid across renames.

        Computed from each sample's column view, never from blocks,
        because the digest *keys* the persisted store: looking a store
        up must not first build the blocks the lookup exists to avoid.
        Ragged rows, which have no view, hash their region objects.

        Recipe v3 feeds coordinates and numeric attribute columns to the
        hash as raw fixed-width bytes (with an explicit per-value type
        tag, so ``1`` and ``1.0`` stay distinct) instead of per-region
        formatted strings: digesting is on the cold critical path of
        every fingerprinted plan, and ``repr`` of a float costs more
        than the rest of a region's hashing combined.  Every variable
        length field is length-prefixed, which keeps the encoding
        injective.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(b"repro.store.digest.v3;")
            schema = self._dataset.schema
            for definition in schema:
                h.update(f"{definition.name}:{definition.type.name};".encode())
            for sample in self._dataset:
                h.update(f"#{sample.id}".encode())
                for attribute, value in sorted(
                    (str(a), str(v))
                    for __, a, v in sample.meta.triples(sample.id)
                ):
                    h.update(f"@{attribute}={value};".encode())
                count = len(sample)
                h.update(f"|regions:{count};".encode())
                if not count:
                    continue
                rows = sample.columns()
                if rows is None:
                    _update_ragged(h, sample.regions)
                else:
                    _update_column_rows(h, rows, count)
            self._digest = h.hexdigest()
        return self._digest
