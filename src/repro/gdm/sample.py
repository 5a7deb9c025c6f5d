"""Samples: the unit linking regions and metadata through a shared id.

"The sample ID provides a many-to-many connection between regions and
metadata of the same sample" (paper, section 2).  A :class:`Sample` owns an
id, an ordered list of regions, and one :class:`~repro.gdm.metadata.Metadata`
instance.  Samples are value objects from the algebra's point of view:
operators derive new samples instead of mutating existing ones.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import DatasetError
from repro.gdm.metadata import Metadata
from repro.gdm.region import GenomicRegion


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
        anything else is copied into a new one.
    meta:
        The sample's metadata; defaults to empty metadata.
    """

    __slots__ = ("id", "regions", "meta")

    def __init__(
        self,
        sample_id: int,
        regions: Iterable[GenomicRegion] = (),
        meta: Metadata | None = None,
    ) -> None:
        if sample_id < 0:
            raise DatasetError(f"negative sample id: {sample_id}")
        self.id = int(sample_id)
        self.regions = (
            regions if isinstance(regions, RegionList) else RegionList(regions)
        )
        self.meta = meta if meta is not None else Metadata()

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of regions in the sample."""
        return len(self.regions)

    def __iter__(self) -> Iterator[GenomicRegion]:
        return iter(self.regions)

    def chromosomes(self) -> tuple:
        """Sorted tuple of chromosome names present in the sample."""
        return tuple(sorted({region.chrom for region in self.regions}))

    def regions_on(self, chrom: str) -> list:
        """Regions lying on the given chromosome, in stored order."""
        return [region for region in self.regions if region.chrom == chrom]

    def rows(self) -> Iterator[tuple]:
        """Iterate the GDM region rows ``(id, chrom, left, right, strand, v...)``.

        Each tuple is built attribute by attribute rather than through
        :meth:`GenomicRegion.__iter__`: a digest asks for every row of a
        result, and a generator per region was most of its cost.
        """
        sample_id = self.id
        return (
            (sample_id, r.chrom, r.left, r.right, r.strand, *r.values)
            for r in self.regions
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
        """Copy under a new id (shares the region list and its memo)."""
        return Sample(sample_id, self.regions, self.meta)

    def with_regions(self, regions: Iterable[GenomicRegion]) -> "Sample":
        """Copy with the region list replaced."""
        return Sample(self.id, regions, self.meta)

    def with_meta(self, meta: Metadata) -> "Sample":
        """Copy with the metadata replaced."""
        return Sample(self.id, self.regions, meta)

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
            f"Sample(id={self.id}, regions={len(self.regions)},"
            f" meta_pairs={len(self.meta)})"
        )


def renumber(samples: Sequence[Sample], start: int = 1) -> list:
    """Return copies of *samples* with consecutive ids from *start*.

    GMQL operators produce result datasets whose samples get fresh ids;
    provenance records keep the link to the originating ids.
    """
    return [sample.with_id(start + i) for i, sample in enumerate(samples)]
