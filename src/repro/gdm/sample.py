"""Samples: the unit linking regions and metadata through a shared id.

"The sample ID provides a many-to-many connection between regions and
metadata of the same sample" (paper, section 2).  A :class:`Sample` owns an
id, an ordered list of regions, and one :class:`~repro.gdm.metadata.Metadata`
instance.  Samples are value objects from the algebra's point of view:
operators derive new samples instead of mutating existing ones.

The logical model does not fix the physical one (paper, section 4.2):
a sample holds a :class:`RegionList` or is *born as columns*
(:class:`ColumnRows`), answers its length, rows and chromosome runs from
them and builds its :class:`GenomicRegion` objects only when something
asks for :attr:`Sample.regions`.  :meth:`Sample.columns` is the one
column view of either shape, which everything but the naive engine and
the line-level format API reads.
"""

from __future__ import annotations

import threading
from itertools import chain, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.gdm.metadata import Metadata
from repro.gdm.region import GenomicRegion, check_region_columns

_CHROM = attrgetter("chrom")
_LEFT = attrgetter("left")
_RIGHT = attrgetter("right")
_STRAND = attrgetter("strand")
_VALUES = attrgetter("values")


def listed(column) -> list:
    """A column as a list of Python values (arrays convert)."""
    return column.tolist() if isinstance(column, np.ndarray) else column


class RegionList(list):
    """A sample's region list, and the holder of what is derived from it.

    The columnar store memoises everything it derives from one list --
    its column view, per-bin-size blocks and typed value columns, see
    :func:`repro.store.columnar.region_memo` -- in :attr:`memo`, so
    every sample sharing the list object (a metadata SELECT's output, a
    renumbered or renamed copy) shares them too.  The memo is valid by
    identity: a list is never mutated in place once a sample holds it
    (``benchmarks/lint_repo.py`` rule RL009 enforces that under
    ``src/``).  It dies with the list and is never pickled or copied.
    """

    __slots__ = ("memo",)

    def __init__(self, regions: Iterable[GenomicRegion] = ()) -> None:
        super().__init__(regions)
        self.memo = None

    def __reduce__(self):
        return (RegionList, (), None, iter(self))


def chromosome_runs(regions: Iterable[GenomicRegion]) -> list:
    """``[(chrom, count), ...]``: consecutive same-chromosome runs, in order."""
    return [
        (chrom, len(list(run))) for chrom, run in groupby(map(_CHROM, regions))
    ]


def _coordinates(regions, getter) -> np.ndarray:
    """One coordinate of every region: int64, or an object array of
    Python ints when one lies beyond int64 (the line parser keeps such
    coordinates)."""
    try:
        return np.fromiter(map(getter, regions), np.int64, len(regions))
    except OverflowError:
        return np.array(list(map(getter, regions)), dtype=object)


def region_list_columns(regions) -> ColumnRows | None:
    """The rows of a region list as :class:`ColumnRows`, read one
    attribute at a time: how a region list's column view is built (see
    :meth:`Sample.columns`).

    ``None`` when the regions' value tuples differ in width (possible
    only with validation off): columns cannot hold such rows.
    """
    rows = list(map(_VALUES, regions))
    widths = set(map(len, rows))
    if len(widths) > 1:
        return None
    return ColumnRows(
        chromosome_runs(regions),
        _coordinates(regions, _LEFT),
        _coordinates(regions, _RIGHT),
        list(map(_STRAND, regions)),
        [
            list(map(itemgetter(index), rows))
            for index in range(max(widths, default=0))
        ],
    )


def take_column(column, index: np.ndarray):
    """The entries *index* of a column, in that order: an array's as an
    array, a list's as a list."""
    if isinstance(column, np.ndarray):
        return column[index]
    return list(map(column.__getitem__, index.tolist()))


# -- rows held as columns ----------------------------------------------------

#: Serialises materialisation, so concurrent readers of one sample born
#: as columns all get the same region list.
_MATERIALISE_LOCK = threading.Lock()
_ROWS_MATERIALISED = 0


def rows_materialised() -> int:
    """Region objects built so far from column-born samples (process-wide)."""
    return _ROWS_MATERIALISED


def reset_rows_materialised() -> None:
    """Zero :func:`rows_materialised` (test/benchmark isolation)."""
    global _ROWS_MATERIALISED
    with _MATERIALISE_LOCK:
        _ROWS_MATERIALISED = 0


class ColumnRows:
    """Rows held as columns, in row order: the chromosome runs
    ``[(chrom, count), ...]``, ``lefts`` and ``rights`` (integer arrays),
    one strand symbol per row, and one column per variable value (an
    array or a list of Python values).  Columnar operator outputs, GDM
    file reads (:meth:`repro.formats.bed.CustomBedFormat.parse_columns`)
    and region-list views are born as columns; coordinates are checked
    here.  :meth:`regions` builds the :class:`GenomicRegion` objects --
    once, under a lock -- giving exactly the tuples of :meth:`rows`.

    Columns are shared (a MAP output holds its reference's, blocks hold
    coordinate slices), so none is mutated in place.  :attr:`memo` holds
    what the columnar store derives from the rows (see
    :func:`repro.store.columnar.region_memo`); the list :meth:`regions`
    builds adopts it, so blocks survive materialisation.
    """

    __slots__ = ("runs", "lefts", "rights", "strands", "values",
                 "_regions", "memo")

    def __init__(self, runs: list, lefts: np.ndarray, rights: np.ndarray,
                 strands, values: list) -> None:
        self.runs = runs
        self.lefts = lefts
        self.rights = rights
        self.strands = strands
        self.values = values
        self._regions = None
        self.memo = None
        check_region_columns(
            [chrom for chrom, __ in runs], lefts, rights, set(strands)
        )

    def __len__(self) -> int:
        return self.lefts.size

    def _columns(self) -> list:
        return [
            chain.from_iterable(repeat(chrom, count)
                                for chrom, count in self.runs),
            self.lefts.tolist(),
            self.rights.tolist(),
            *map(listed, (self.strands, *self.values)),
        ]

    def rows(self, sample_id: int) -> Iterator[tuple]:
        """The rows ``(id, chrom, left, right, strand, v...)``."""
        return zip(repeat(sample_id), *self._columns())

    def chromosome_runs(self) -> list:
        """As :func:`chromosome_runs` over the materialised regions."""
        return list(self.runs)

    def regions(self) -> RegionList:
        """The materialised region list (built on first call, then kept)."""
        global _ROWS_MATERIALISED
        regions = self._regions
        if regions is None:
            with _MATERIALISE_LOCK:
                regions = self._regions
                if regions is None:
                    chroms, lefts, rights, strands, *values = self._columns()
                    regions = RegionList(
                        GenomicRegion(chrom, left, right, strand, row)
                        for chrom, left, right, strand, row in zip(
                            chroms, lefts, rights, strands,
                            zip(*values) if values else repeat(()),
                        )
                    )
                    regions.memo = self.memo
                    _ROWS_MATERIALISED += len(regions)
                    self._regions = regions
        return regions

    def take(self, keep: np.ndarray) -> ColumnRows:
        """The rows where the boolean mask *keep* holds, in row order,
        as new columns (what region SELECT and DIFFERENCE emit)."""
        index = np.flatnonzero(keep)
        ends = np.cumsum([count for __, count in self.runs], dtype=np.int64)
        kept = np.diff(np.searchsorted(index, ends), prepend=0).tolist()
        runs: list = []
        for (chrom, __), count in zip(self.runs, kept):
            if count and runs and runs[-1][0] == chrom:
                count += runs.pop()[1]
            if count:
                runs.append((chrom, count))
        return ColumnRows(
            runs, self.lefts[index], self.rights[index],
            take_column(self.strands, index),
            [take_column(column, index) for column in self.values],
        )


class Sample:
    """One experimental sample: id + regions + metadata.

    Parameters
    ----------
    sample_id:
        Integer identifier, unique within the owning dataset.
    regions:
        Iterable of :class:`GenomicRegion`, kept in the given order
        (operators that need genome order sort explicitly).  A
        :class:`RegionList` is kept as is -- shared, with its memo --
        and so is a :class:`ColumnRows`, which makes the sample born
        as columns; anything else is copied into a new list.
    meta:
        The sample's metadata; defaults to empty metadata.
    """

    __slots__ = ("id", "_regions", "meta")

    def __init__(
        self,
        sample_id: int,
        regions: Iterable[GenomicRegion] = (),
        meta: Metadata | None = None,
    ) -> None:
        if sample_id < 0:
            raise DatasetError(f"negative sample id: {sample_id}")
        self.id = int(sample_id)
        self._regions = (
            regions if isinstance(regions, (RegionList, ColumnRows))
            else RegionList(regions)
        )
        self.meta = meta if meta is not None else Metadata()

    @property
    def regions(self):
        """The region list; a sample born as columns builds it on first
        request (:meth:`ColumnRows.regions`) and keeps its columns."""
        regions = self._regions
        if isinstance(regions, ColumnRows):
            return regions.regions()
        return regions

    @regions.setter
    def regions(self, regions) -> None:
        self._regions = regions

    def held_rows(self):
        """The rows as the sample holds them, never materialised: its
        region list, or the :class:`ColumnRows` it was born as."""
        return self._regions

    def columns(self) -> ColumnRows | None:
        """The rows as one :class:`ColumnRows`, no region object built.

        A sample born as columns returns them as they are; a region
        list's view is read once and memoised on the list
        (:func:`repro.store.columnar.column_view`).  ``None`` for rows
        whose value tuples differ in width (see
        :func:`region_list_columns`).
        """
        from repro.store.columnar import column_view

        return column_view(self._regions)

    # -- pickling: always the eager state -------------------------------------

    def __getstate__(self) -> tuple:
        return (None, {"id": self.id, "regions": self.regions,
                       "meta": self.meta})

    def __setstate__(self, state: tuple) -> None:
        slots = state[1]
        self.id = slots["id"]
        self._regions = slots["regions"]
        self.meta = slots["meta"]

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of regions in the sample."""
        return len(self._regions)

    def __iter__(self) -> Iterator[GenomicRegion]:
        return iter(self.regions)

    def chromosomes(self) -> tuple:
        """Sorted tuple of chromosome names present in the sample."""
        return tuple(sorted({chrom for chrom, __ in self.chromosome_runs()}))

    def chromosome_runs(self) -> list:
        """``[(chrom, count), ...]`` over the regions' consecutive
        same-chromosome runs (a sample born as columns answers from
        them)."""
        regions = self._regions
        if isinstance(regions, ColumnRows):
            return regions.chromosome_runs()
        return chromosome_runs(regions)

    def rows(self) -> Iterator[tuple]:
        """Iterate the GDM region rows ``(id, chrom, left, right, strand, v...)``.

        Each tuple is built attribute by attribute rather than through
        :meth:`GenomicRegion.__iter__`: a digest asks for every row of a
        result, and a generator per region was most of its cost.  A
        sample born as columns yields them from its columns.
        """
        sample_id = self.id
        regions = self._regions
        if isinstance(regions, ColumnRows):
            return regions.rows(sample_id)
        return (
            (sample_id, r.chrom, r.left, r.right, r.strand, *r.values)
            for r in regions
        )

    def sorted_regions(self) -> list:
        """Regions in genome order (chromosome, left, right)."""
        return sorted(self.regions, key=GenomicRegion.sort_key)

    def is_sorted(self) -> bool:
        """True when regions are already in genome order."""
        keys = [region.sort_key() for region in self.regions]
        return all(a <= b for a, b in zip(keys, keys[1:]))

    def covered_positions(self) -> int:
        """Total number of distinct genomic positions covered.

        Overlapping regions are counted once; this walks regions in genome
        order and merges overlaps.
        """
        covered = 0
        last_chrom = None
        last_right = 0
        for region in self.sorted_regions():
            if region.chrom != last_chrom:
                last_chrom = region.chrom
                last_right = 0
            left = max(region.left, last_right)
            if region.right > left:
                covered += region.right - left
                last_right = region.right
            last_right = max(last_right, region.right)
        return covered

    # -- derivation -----------------------------------------------------------

    def with_id(self, sample_id: int) -> "Sample":
        """Copy under a new id (shares the region list and its memo, or
        the columns)."""
        return Sample(sample_id, self._regions, self.meta)

    def with_regions(self, regions: Iterable[GenomicRegion]) -> "Sample":
        """Copy with the region list replaced."""
        return Sample(self.id, regions, self.meta)

    def with_meta(self, meta: Metadata) -> "Sample":
        """Copy with the metadata replaced."""
        return Sample(self.id, self._regions, meta)

    def filter_regions(
        self, predicate: Callable[[GenomicRegion], bool]
    ) -> "Sample":
        """Copy keeping only the regions satisfying *predicate*."""
        return self.with_regions(
            [region for region in self.regions if predicate(region)]
        )

    def map_regions(
        self, transform: Callable[[GenomicRegion], GenomicRegion]
    ) -> "Sample":
        """Copy with every region passed through *transform*."""
        return self.with_regions([transform(region) for region in self.regions])

    def __repr__(self) -> str:
        return (
            f"Sample(id={self.id}, regions={len(self)},"
            f" meta_pairs={len(self.meta)})"
        )


def renumber(samples: Sequence[Sample], start: int = 1) -> list:
    """Return copies of *samples* with consecutive ids from *start*.

    GMQL operators produce result datasets whose samples get fresh ids;
    provenance records keep the link to the originating ids.
    """
    return [sample.with_id(start + i) for i, sample in enumerate(samples)]
