"""Samples: the unit linking regions and metadata through a shared id.

"The sample ID provides a many-to-many connection between regions and
metadata of the same sample" (paper, section 2).  A :class:`Sample` owns an
id, an ordered list of regions, and one :class:`~repro.gdm.metadata.Metadata`
instance.  Samples are value objects from the algebra's point of view:
operators derive new samples instead of mutating existing ones.

The logical model does not fix the physical one (paper, section 4.2): a
sample an operator computed as columns may be *born from columns*.  It
then holds a :class:`RowSource` -- the operator's own arrays -- answers
its length, rows and chromosome runs from it, and builds its
:class:`GenomicRegion` objects only when something asks for
:attr:`Sample.regions`.
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
    per-bin-size blocks and typed value columns, see
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


def region_list_columns(regions, extra: list = ()) -> ColumnRows | None:
    """The rows of a region list as :class:`ColumnRows`, read one
    attribute at a time, with *extra* value columns appended.

    ``None`` when the regions' value tuples differ in width (possible
    only with validation off): columns cannot hold such rows.
    """
    rows = list(map(_VALUES, regions))
    widths = set(map(len, rows))
    if len(widths) > 1:
        return None
    values = [
        list(map(itemgetter(index), rows))
        for index in range(max(widths, default=0))
    ]
    return ColumnRows(
        chromosome_runs(regions),
        _coordinates(regions, _LEFT),
        _coordinates(regions, _RIGHT),
        list(map(_STRAND, regions)),
        values + list(extra),
    )


# -- samples born from columns --------------------------------------------------

#: Serialises materialisation, so concurrent readers of one lazily born
#: sample all get the same region list.
_MATERIALISE_LOCK = threading.Lock()
_ROWS_MATERIALISED = 0


def rows_materialised() -> int:
    """Region objects built so far from lazily born samples (process-wide)."""
    return _ROWS_MATERIALISED


def reset_rows_materialised() -> None:
    """Zero :func:`rows_materialised` (test/benchmark isolation)."""
    global _ROWS_MATERIALISED
    with _MATERIALISE_LOCK:
        _ROWS_MATERIALISED = 0


class RowSource:
    """A sample's regions, still in the columns an operator computed.

    Answers the row count, the GDM rows and the chromosome runs from
    those columns; :meth:`regions` builds the :class:`GenomicRegion`
    objects -- once, under a lock -- only when something needs them.
    Rows are exactly the tuples the built regions give, so a digest
    over :meth:`rows` equals one over the materialised sample.
    Subclasses hold their columns and implement :meth:`__len__`,
    :meth:`rows`, :meth:`chromosome_runs` and :meth:`_build`; coordinate
    columns they compute themselves pass
    :func:`~repro.gdm.region.check_region_columns` when they are born.

    :attr:`memo` holds what the columnar store derives from these rows
    (see :func:`repro.store.columnar.region_memo`), just as a
    :class:`RegionList`'s does; the list :meth:`regions` builds adopts
    it, so blocks built from the columns survive materialisation.
    """

    __slots__ = ("_regions", "memo")

    def __init__(self) -> None:
        self._regions = None
        self.memo = None

    def __len__(self) -> int:
        raise NotImplementedError

    def rows(self, sample_id: int) -> Iterator[tuple]:
        """The rows ``(id, chrom, left, right, strand, v...)``."""
        raise NotImplementedError

    def chromosome_runs(self) -> list:
        """As :func:`chromosome_runs` over the materialised regions."""
        raise NotImplementedError

    def _build(self) -> Iterable[GenomicRegion]:
        raise NotImplementedError

    def regions(self) -> RegionList:
        """The materialised region list (built on first call, then kept)."""
        global _ROWS_MATERIALISED
        regions = self._regions
        if regions is None:
            with _MATERIALISE_LOCK:
                regions = self._regions
                if regions is None:
                    regions = RegionList(self._build())
                    regions.memo = self.memo
                    _ROWS_MATERIALISED += len(regions)
                    self._regions = regions
        return regions

    @property
    def built(self) -> RegionList | None:
        """The region list :meth:`regions` built, or ``None`` before."""
        return self._regions


class ColumnRows(RowSource):
    """Rows held as columns, in row order: the chromosome runs
    ``[(chrom, count), ...]``, ``lefts`` and ``rights`` (integer arrays),
    one strand symbol per row, and one column per variable value (an
    array or a list of Python values).  What COVER-family and JOIN
    outputs and samples read from GDM files
    (:meth:`repro.formats.bed.CustomBedFormat.parse_columns`) are born
    from; their coordinates are checked here."""

    __slots__ = ("runs", "lefts", "rights", "strands", "values")

    def __init__(self, runs: list, lefts: np.ndarray, rights: np.ndarray,
                 strands, values: list) -> None:
        super().__init__()
        self.runs = runs
        self.lefts = lefts
        self.rights = rights
        self.strands = strands
        self.values = values
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
        return zip(repeat(sample_id), *self._columns())

    def chromosome_runs(self) -> list:
        return list(self.runs)

    def _build(self):
        chroms, lefts, rights, strands, *values = self._columns()
        for chrom, left, right, strand, row in zip(
            chroms, lefts, rights, strands,
            zip(*values) if values else repeat(()),
        ):
            yield GenomicRegion(chrom, left, right, strand, row)


class MapRows(RowSource):
    """MAP output: the reference regions, each with the aggregate values
    appended -- one value list per aggregate, in reference order.  The
    coordinates are the reference's own, checked when those were built."""

    __slots__ = ("reference", "columns")

    def __init__(self, reference: Sequence[GenomicRegion],
                 columns: list) -> None:
        super().__init__()
        self.reference = reference
        self.columns = columns

    def __len__(self) -> int:
        return len(self.reference)

    def _extras(self):
        return zip(*self.columns) if self.columns else repeat(())

    def rows(self, sample_id: int) -> Iterator[tuple]:
        return (
            (sample_id, r.chrom, r.left, r.right, r.strand, *r.values, *extra)
            for r, extra in zip(self.reference, self._extras())
        )

    def chromosome_runs(self) -> list:
        return chromosome_runs(self.reference)

    def _build(self):
        for r, extra in zip(self.reference, self._extras()):
            yield GenomicRegion(
                r.chrom, r.left, r.right, r.strand, r.values + extra
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
        and so is a :class:`RowSource`, which makes the sample born
        from columns; anything else is copied into a new list.
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
            regions if isinstance(regions, (RegionList, RowSource))
            else RegionList(regions)
        )
        self.meta = meta if meta is not None else Metadata()

    @property
    def regions(self):
        """The region list; a sample born from columns builds it here,
        once, and then forgets its :class:`RowSource`."""
        regions = self._regions
        if isinstance(regions, RowSource):
            regions = self._regions = regions.regions()
        return regions

    @regions.setter
    def regions(self, regions) -> None:
        self._regions = regions

    def held_rows(self):
        """The rows as the sample holds them, never materialised: its
        region list, or the :class:`RowSource` it was born from."""
        return self._regions

    def columns(self) -> ColumnRows | None:
        """The rows as one :class:`ColumnRows`, no region object built:
        what the GDM writer and the disk result cache read.

        A sample born as columns returns them as they are; MAP's rows
        are its reference's columns plus the aggregate lists; a region
        list is read one attribute at a time.  Nothing is kept, so each
        call reads the rows afresh.  ``None`` for rows whose value
        tuples differ in width (see :func:`region_list_columns`).
        """
        rows = self._regions
        if isinstance(rows, ColumnRows):
            return rows
        if isinstance(rows, MapRows):
            return region_list_columns(rows.reference, rows.columns)
        if isinstance(rows, RowSource):
            rows = rows.regions()
        return region_list_columns(rows)

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
        same-chromosome runs (a sample born from columns answers from
        them)."""
        regions = self._regions
        if isinstance(regions, RowSource):
            return regions.chromosome_runs()
        return chromosome_runs(regions)

    def regions_on(self, chrom: str) -> list:
        """Regions lying on the given chromosome, in stored order."""
        return [region for region in self.regions if region.chrom == chrom]

    def rows(self) -> Iterator[tuple]:
        """Iterate the GDM region rows ``(id, chrom, left, right, strand, v...)``.

        Each tuple is built attribute by attribute rather than through
        :meth:`GenomicRegion.__iter__`: a digest asks for every row of a
        result, and a generator per region was most of its cost.  A
        sample born from columns yields them from its columns.
        """
        sample_id = self.id
        regions = self._regions
        if isinstance(regions, RowSource):
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
        the row source)."""
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

    def values_of(self, index: int) -> list:
        """The *index*-th variable value of every region (aggregate input)."""
        return [region.values[index] for region in self.regions]

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
