"""Datasets: named collections of samples sharing one region schema.

"Data samples can be included into a named dataset when their genomic regions
have the same schema" (paper, section 2).  :class:`Dataset` enforces that
constraint, coercing region values to the schema types on construction, and
is the operand/result type of every GMQL operator -- the algebra is *closed*
over datasets.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import DatasetError, SchemaError
from repro.gdm.metadata import Metadata
from repro.gdm.region import GenomicRegion
from repro.gdm.sample import Sample
from repro.gdm.schema import RegionSchema


class Dataset:
    """A named GDM dataset: a region schema plus samples keyed by id.

    Parameters
    ----------
    name:
        Dataset name (used by catalogs, provenance and the GMQL binder).
    schema:
        The shared :class:`RegionSchema` of all member samples.
    samples:
        Iterable of :class:`Sample`; ids must be unique.  Region value
        tuples are coerced to the schema types (and padded with missing
        values) as samples are added, so a dataset is always internally
        consistent.
    validate:
        Set to ``False`` to skip value coercion when the caller guarantees
        samples already conform (operators use this on data they built).
    """

    __slots__ = ("name", "schema", "_samples", "provenance", "_stores",
                 "_shard_summary", "_digest_memo", "_var_info")

    def __init__(
        self,
        name: str,
        schema: RegionSchema,
        samples: Iterable[Sample] = (),
        validate: bool = True,
    ) -> None:
        if not name:
            raise DatasetError("dataset name must be non-empty")
        self.name = name
        self.schema = schema
        self._samples: dict = {}
        #: Memoised :class:`~repro.store.columnar.DatasetStore` objects,
        #: keyed by bin size; invalidated whenever a sample is added.
        self._stores: dict = {}
        #: Memoised :meth:`shard_summary` (the one summary statistic that
        #: walks every region); invalidated with the stores.
        self._shard_summary: dict | None = None
        #: ``(key, digest)`` of a served result this dataset is the
        #: result-cache entry of (see :mod:`repro.serve.scheduler`);
        #: invalidated with the stores, never pickled.
        self._digest_memo: tuple | None = None
        #: What the GMQL analyzer knows of this dataset as a source
        #: (memo of :func:`repro.gmql.lang.semantics._dataset_var_info`,
        #: which every compile over it asks for); invalidated with the
        #: stores, never pickled.
        self._var_info = None
        #: Provenance records attached by GMQL operators (see
        #: :mod:`repro.gmql.provenance`); empty for source datasets.
        self.provenance: list = []
        for sample in samples:
            self.add_sample(sample, validate=validate)

    # -- construction ---------------------------------------------------------

    def add_sample(self, sample: Sample, validate: bool = True) -> None:
        """Add one sample, enforcing id uniqueness and schema conformance."""
        if sample.id in self._samples:
            raise DatasetError(
                f"duplicate sample id {sample.id} in dataset {self.name!r}"
            )
        if validate:
            sample = self._conform(sample)
        self._samples[sample.id] = sample
        self._stores = {}
        self._shard_summary = None
        self._digest_memo = None
        self._var_info = None

    def _conform(self, sample: Sample) -> Sample:
        width = len(self.schema)
        regions = []
        dirty = False
        for region in sample.regions:
            if len(region.values) == width:
                try:
                    coerced = self.schema.coerce_values(region.values)
                except SchemaError as exc:
                    raise SchemaError(
                        f"sample {sample.id} of {self.name!r}: {exc}"
                    ) from exc
                if coerced != region.values:
                    region = region.with_values(coerced)
                    dirty = True
            else:
                coerced = self.schema.coerce_values(region.values)
                region = region.with_values(coerced)
                dirty = True
            regions.append(region)
        return sample.with_regions(regions) if dirty else sample

    @classmethod
    def build(
        cls,
        name: str,
        schema: RegionSchema,
        samples: Mapping[int, tuple] | None = None,
    ) -> "Dataset":
        """Convenience constructor from ``{id: (regions, metadata_dict)}``.

        >>> ds = Dataset.build("D", RegionSchema.empty(),
        ...                    {1: ([GenomicRegion("chr1", 0, 10)], {"cell": "HeLa"})})
        >>> len(ds)
        1
        """
        dataset = cls(name, schema)
        for sample_id, (regions, meta) in (samples or {}).items():
            dataset.add_sample(Sample(sample_id, regions, Metadata(meta)))
        return dataset

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of samples."""
        return len(self._samples)

    def __iter__(self) -> Iterator[Sample]:
        """Iterate samples in ascending id order (deterministic)."""
        for sample_id in sorted(self._samples):
            yield self._samples[sample_id]

    def __contains__(self, sample_id: int) -> bool:
        return sample_id in self._samples

    def __getitem__(self, sample_id: int) -> Sample:
        try:
            return self._samples[sample_id]
        except KeyError:
            raise DatasetError(
                f"no sample {sample_id} in dataset {self.name!r}"
            ) from None

    @property
    def sample_ids(self) -> tuple:
        """Sorted tuple of member sample ids."""
        return tuple(sorted(self._samples))

    def region_count(self) -> int:
        """Total number of regions across all samples."""
        return sum(len(sample) for sample in self._samples.values())

    def metadata_count(self) -> int:
        """Total number of metadata (attribute, value) pairs across samples."""
        return sum(len(sample.meta) for sample in self._samples.values())

    def chromosomes(self) -> tuple:
        """Sorted tuple of chromosomes appearing anywhere in the dataset."""
        found: set = set()
        for sample in self._samples.values():
            found.update(chrom for chrom, __ in sample.chromosome_runs())
        return tuple(sorted(found))

    def metadata_attributes(self) -> tuple:
        """Sorted tuple of metadata attribute names used by any sample."""
        found: set = set()
        for sample in self._samples.values():
            found.update(sample.meta.attributes())
        return tuple(sorted(found))

    def store(
        self,
        bin_size: int | None = None,
        root: str | None = None,
        sync: bool | None = None,
    ):
        """The columnar store of this dataset (built lazily, memoised).

        Returns a :class:`~repro.store.columnar.DatasetStore`: per-sample
        struct-of-arrays blocks, zone maps and the content digest.  One
        store is kept per resolved (bin size, store root) -- ``None``
        and the default bin size name the same store; adding a
        sample invalidates all of them, so stores always describe
        current content.  Per-sample blocks themselves are memoised on
        the samples' region lists, so a dataset sharing lists with
        another (a renamed copy, a metadata SELECT's result) gets them
        from its fresh store without a rebuild.

        *root* overrides the process-default store root (see
        :func:`repro.store.persist.store_root`); with a root the store
        serves blocks from persisted memory-mapped segments when they
        exist and persists them after an in-memory build otherwise.
        *sync* fixes the persist mode for a newly created store
        (ignored on memo hits, which keep their original mode).
        """
        from repro.intervals.bins import DEFAULT_BIN_SIZE
        from repro.store.columnar import DatasetStore
        from repro.store.persist import store_root

        resolved_bin_size = int(bin_size or DEFAULT_BIN_SIZE)
        resolved_root = root if root is not None else store_root()
        key = (resolved_bin_size, resolved_root)
        store = self._stores.get(key)
        if store is None:
            store = DatasetStore(self, resolved_bin_size, root=resolved_root,
                                 sync=sync)
            self._stores[key] = store
        return store

    def store_stats(self) -> dict:
        """Residency summed across all memoised stores (block counts are
        process-wide: :func:`repro.store.columnar.store_counters`)."""
        resident = sum(store.resident_bytes() for store in self._stores.values())
        return {"resident_bytes": resident}

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop memoised stores: memmaps and block arrays never travel.
        Nor do the digest and analyzer memos, which only vouch for this
        object.

        A revived dataset (worker process, persisted result cache)
        rebuilds or re-opens its store lazily, which is both smaller on
        the wire and correct across machines.
        """
        return {
            "name": self.name,
            "schema": self.schema,
            "_samples": self._samples,
            "provenance": self.provenance,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.schema = state["schema"]
        self._samples = state["_samples"]
        self.provenance = state["provenance"]
        self._stores = {}
        self._shard_summary = None
        self._digest_memo = None
        self._var_info = None

    def estimated_size_bytes(self) -> int:
        """Rough serialised size, used by the federation cost estimator.

        Counts a fixed 32 bytes per region for the coordinates plus 12
        bytes per variable value, and 24 bytes per metadata pair --
        calibrated against the tab-separated on-disk format.
        """
        region_bytes = 0
        for sample in self._samples.values():
            region_bytes += len(sample) * (32 + 12 * len(self.schema))
        return region_bytes + 24 * self.metadata_count()

    # -- triples view (the GDM instance layout of Figure 2) -------------------

    def region_rows(self) -> Iterator[tuple]:
        """Iterate region rows as ``(id, chrom, left, right, strand, v...)``."""
        for sample in self:
            yield from sample.rows()

    def metadata_triples(self) -> Iterator[tuple]:
        """Iterate the GDM metadata triples ``(id, attribute, value)``."""
        for sample in self:
            yield from sample.meta.triples(sample.id)

    # -- derivation -----------------------------------------------------------

    def with_name(self, name: str) -> "Dataset":
        """Shallow copy under a new name (samples shared)."""
        clone = Dataset(name, self.schema, validate=False)
        clone._samples = dict(self._samples)
        clone.provenance = list(self.provenance)
        return clone

    def with_samples(
        self, samples: Iterable[Sample], name: str | None = None,
        schema: RegionSchema | None = None, validate: bool = False,
    ) -> "Dataset":
        """New dataset like this one but with a different sample list."""
        result = Dataset(name or self.name, schema or self.schema,
                         samples, validate=validate)
        return result

    def shard_summary(self) -> dict:
        """Per-chromosome shard statistics for federated placement.

        ``{"clustered": bool, "chroms": {chrom: [shard_count, regions,
        bytes]}}``: one (sample, chromosome) shard per entry of the
        count, bytes under the :meth:`estimated_size_bytes` region cost
        model.  ``clustered`` reports whether every sample's regions
        form one contiguous run per chromosome in genome order -- the
        precondition for order-preserving shard slicing and merging.

        The walk over every sample's chromosome runs (a sample born from
        columns reads them from its columns) is done once and memoised
        until a sample is added (physical planning asks on every plan);
        each call returns a fresh copy, so callers may edit theirs.
        """
        if self._shard_summary is None:
            self._shard_summary = self._walk_shards()
        memo = self._shard_summary
        return {
            "clustered": memo["clustered"],
            "chroms": {
                chrom: list(entry) for chrom, entry in memo["chroms"].items()
            },
        }

    def _walk_shards(self) -> dict:
        from repro.gdm.region import chromosome_sort_key

        per_region = 32 + 12 * len(self.schema)
        chroms: dict = {}
        clustered = True
        for sample in self._samples.values():
            counts: dict = {}
            previous = None
            for chrom, count in sample.chromosome_runs():
                if chrom in counts or (
                    previous is not None
                    and chromosome_sort_key(chrom)
                    < chromosome_sort_key(previous)
                ):
                    clustered = False
                previous = chrom
                counts[chrom] = counts.get(chrom, 0) + count
            for chrom, count in counts.items():
                entry = chroms.setdefault(chrom, [0, 0, 0])
                entry[0] += 1
                entry[1] += count
                entry[2] += count * per_region
        ordered = {
            chrom: chroms[chrom]
            for chrom in sorted(chroms, key=chromosome_sort_key)
        }
        return {"clustered": clustered, "chroms": ordered}

    def summary(self) -> dict:
        """Summary statistics dictionary used by repr, logs and protocols."""
        return {
            "name": self.name,
            "samples": len(self),
            "regions": self.region_count(),
            "metadata_pairs": self.metadata_count(),
            "schema": list(self.schema.names),
            # Typed schema (attribute -> GDM type name): lets remote
            # peers rebuild a RegionSchema and run exact semantic
            # analysis without touching the data.
            "schema_types": {d.name: d.type.name for d in self.schema},
            "size_bytes": self.estimated_size_bytes(),
            # (sample, chromosome) shard manifest: what federated
            # shard-aware placement plans over (see
            # :mod:`repro.federation.shards`).
            "shards": self.shard_summary(),
        }

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, samples={len(self)},"
            f" regions={self.region_count()}, schema={list(self.schema.names)})"
        )


def region(
    chrom: str,
    left: int,
    right: int,
    strand: str = "*",
    *values: Any,
) -> GenomicRegion:
    """Shorthand region constructor used throughout tests and examples."""
    return GenomicRegion(chrom, left, right, strand, tuple(values))
