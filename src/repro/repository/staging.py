"""Result staging and deferred retrieval (paper, section 4.3/4.4).

"Deferred result retrieval will be possible, through limited amount of
staging at the sites hosting the services" and the client should be "in
control of staging resources and of communication load".  A
:class:`StagingArea` holds materialised results up to a byte budget,
serves them in chunks, and evicts least-recently-used entries when a new
result would not fit.

With a persistent store root configured (see
:func:`repro.store.persist.store_root`), staged payloads **spill to
disk** instead of living in process memory: the serialised sections are
written once to ``<root>/staging/<content digest>.staged`` (atomic,
content-addressed, so re-staging the same result -- or another process
staging it -- reuses the file byte-for-byte) and every chunk is served
straight from a read-only memory map.  Such results charge ~0 bytes
against the staging budget, because the budget models *host memory*
("limited amount of staging at the sites") and mmap-served pages belong
to the OS page cache; :meth:`StagingArea.used_bytes` counts only
materialised bytes, :meth:`StagingArea.mapped_bytes` reports the
disk-served remainder, and :meth:`StagingArea.release` closes the map so
the accounting stays honest over the full ticket lifecycle.
"""

from __future__ import annotations

import itertools

from repro.errors import RepositoryError
from repro.formats.bed import CustomBedFormat
from repro.gdm import Dataset
from repro.store.persist import BLOB_HEADER, atomic_write_blob, map_blob


def _serialise_sections(dataset: Dataset) -> tuple:
    """The two staged sections ``(meta, regions)`` as bytes.

    Regions and metadata serialise *separately* so a client can
    "selectively retrieve regions or metadata" (paper, section 4.3) --
    e.g. fetch only the metadata to decide whether the big region
    payload is worth the transfer.
    """
    from repro.formats.bed import schema_to_header
    from repro.formats.meta import serialize_meta

    region_format = CustomBedFormat(dataset.schema)
    meta_parts = [f"#schema\t{schema_to_header(dataset.schema)}\n"]
    region_parts = []
    for sample in dataset:
        meta_parts.append(f"#sample\t{sample.id}\n")
        meta_parts.append(serialize_meta(sample.meta))
        region_parts.append(f"#sample\t{sample.id}\n")
        region_parts.extend(region_format.serialize_sample(sample))
    return "".join(meta_parts).encode(), "".join(region_parts).encode()


class StagedResult:
    """One staged result: serialised sample sections plus bookkeeping.

    The payload lives either in memory (``materialised_bytes`` == size)
    or as a memory-mapped spill file under *spill_dir*
    (``mapped_bytes`` == size); chunk retrieval is uniform over both.
    """

    def __init__(
        self,
        ticket: str,
        dataset: Dataset,
        chunk_bytes: int,
        spill_dir=None,
    ) -> None:
        self.ticket = ticket
        self.name = dataset.name
        self.chunk_bytes = chunk_bytes
        self._map = None
        self._blob = b""
        meta_len = region_len = 0
        if spill_dir is not None:
            digest = dataset.store().digest()
            path = f"{spill_dir}/{digest}.staged"
            mapped = map_blob(path)
            if mapped is None:
                atomic_write_blob(path, _serialise_sections(dataset))
                mapped = map_blob(path)
            if mapped is not None:
                self._map, meta_len, region_len = mapped
                self.path = path
        if self._map is None:
            self.path = None
            meta, regions = _serialise_sections(dataset)
            self._blob = meta + regions
            meta_len, region_len = len(meta), len(regions)
        self.meta_len = meta_len
        self.region_len = region_len
        self.size_bytes = meta_len + region_len
        count = -(-self.size_bytes // chunk_bytes) if self.size_bytes else 1
        self.retrieved = [False] * count

    # -- accounting -----------------------------------------------------------

    @property
    def materialised_bytes(self) -> int:
        """Payload bytes held in process memory (0 when mmap-served)."""
        return 0 if self._map is not None else self.size_bytes

    @property
    def mapped_bytes(self) -> int:
        """Payload bytes served from the spill file's memory map."""
        return self.size_bytes if self._map is not None else 0

    # -- payload access -------------------------------------------------------

    def _payload(self, offset: int, length: int) -> bytes:
        if self._map is not None:
            base = BLOB_HEADER.size + offset
            return bytes(self._map[base: base + length])
        return self._blob[offset: offset + length]

    @property
    def meta_blob(self) -> bytes:
        return self._payload(0, self.meta_len)

    @property
    def region_blob(self) -> bytes:
        return self._payload(self.meta_len, self.region_len)

    @property
    def chunk_count(self) -> int:
        return len(self.retrieved)

    def chunk(self, index: int) -> bytes:
        return self._payload(index * self.chunk_bytes, self.chunk_bytes)

    @property
    def complete(self) -> bool:
        """True once every chunk has been retrieved at least once."""
        return all(self.retrieved)

    def close(self) -> None:
        """Release the spill-file map (idempotent; file stays on disk)."""
        if self._map is not None:
            self._map.close()
            self._map = None
            self.size_bytes = 0
            self.meta_len = 0
            self.region_len = 0


class StagingArea:
    """LRU-bounded staging of query results with chunked retrieval.

    *fire*, when given, is a chaos hook with the signature of
    :meth:`repro.federation.transfer.Network.fire`; staging operations
    then fire ``staging.stage:<owner>`` / ``staging.retrieve:<owner>``
    injection points so an armed fault injector can make a host's
    staging slow or flaky independently of its protocol handlers.

    *spill_dir* overrides where staged payloads spill; by default they
    spill to ``<store root>/staging`` when a persistent store root is
    configured and stay in memory otherwise.
    """

    def __init__(self, budget_bytes: int = 1_000_000,
                 chunk_bytes: int = 16_384, fire=None,
                 owner: str = "staging", spill_dir: str | None = None) -> None:
        if budget_bytes <= 0 or chunk_bytes <= 0:
            raise RepositoryError("staging budget and chunk size must be positive")
        self.budget_bytes = budget_bytes
        self.chunk_bytes = chunk_bytes
        self.owner = owner
        self._fire = fire
        if spill_dir is None:
            from repro.store.persist import store_root

            root = store_root()
            spill_dir = f"{root}/staging" if root is not None else None
        self.spill_dir = spill_dir
        self._staged: dict = {}  # ticket -> StagedResult (insertion = LRU order)
        self._tickets = itertools.count(1)
        self.evictions = 0

    def _chaos(self, operation: str) -> None:
        if self._fire is not None:
            self._fire(f"staging.{operation}:{self.owner}")

    def used_bytes(self) -> int:
        """Bytes of staged payload currently *materialised in memory*.

        Spilled results served through memory maps do not count: their
        pages live in the OS page cache, not the host's staging memory,
        which is what the budget models.
        """
        return sum(
            result.materialised_bytes for result in self._staged.values()
        )

    def mapped_bytes(self) -> int:
        """Bytes of staged payload served from spill-file memory maps."""
        return sum(result.mapped_bytes for result in self._staged.values())

    def stage(self, dataset: Dataset) -> str:
        """Stage a result; returns a retrieval ticket.

        Evicts least-recently-used results until the new one fits; a
        result larger than the whole budget is refused (the client must
        raise its budget or narrow the query -- exactly the control the
        paper wants the protocol to give).  Results that spill to disk
        charge no budget, so a small-memory host can stage
        repository-scale results as long as they are disk-backed.
        """
        self._chaos("stage")
        result = StagedResult(
            "probe", dataset, self.chunk_bytes, spill_dir=self.spill_dir
        )
        if result.materialised_bytes > self.budget_bytes:
            raise RepositoryError(
                f"result of {result.materialised_bytes} bytes exceeds the "
                f"staging budget of {self.budget_bytes}"
            )
        while (
            self.used_bytes() + result.materialised_bytes > self.budget_bytes
        ):
            oldest = next(iter(self._staged))
            self._staged.pop(oldest).close()
            self.evictions += 1
        ticket = f"T{next(self._tickets):06d}"
        result.ticket = ticket
        self._staged[ticket] = result
        return ticket

    def chunk_count(self, ticket: str) -> int:
        """Number of chunks of a staged result."""
        return self._result(ticket).chunk_count

    def retrieve_chunk(self, ticket: str, index: int) -> bytes:
        """Fetch one chunk (marks it retrieved; refreshes LRU position)."""
        self._chaos("retrieve")
        result = self._result(ticket)
        if not 0 <= index < result.chunk_count:
            raise RepositoryError(
                f"chunk {index} out of range for ticket {ticket!r}"
            )
        result.retrieved[index] = True
        # Refresh recency.
        del self._staged[ticket]
        self._staged[ticket] = result
        return result.chunk(index)

    def retrieve_all(self, ticket: str) -> bytes:
        """Fetch the whole result (all chunks, in order)."""
        result = self._result(ticket)
        return b"".join(
            self.retrieve_chunk(ticket, index)
            for index in range(result.chunk_count)
        )

    def retrieve_metadata(self, ticket: str) -> bytes:
        """Fetch only the metadata section of a staged result.

        The selective-retrieval path of section 4.3: metadata are tiny,
        so a client can inspect them before committing to the region
        payload.
        """
        return self._result(ticket).meta_blob

    def retrieve_regions(self, ticket: str) -> bytes:
        """Fetch only the region section of a staged result."""
        return self._result(ticket).region_blob

    def section_lengths(self, ticket: str) -> tuple:
        """``(meta_len, region_len)`` of a staged result's two sections."""
        result = self._result(ticket)
        return result.meta_len, result.region_len

    def blob_handle(self, ticket: str) -> tuple:
        """``(spill_path, meta_len, region_len)`` of a staged result.

        The handle-shipping path for co-resident peers: when the result
        spilled to the persistent store, its content-addressed file can
        be memory-mapped by anyone sharing the filesystem instead of
        streaming chunks.  ``(None, 0, 0)`` when the result is
        memory-staged.
        """
        result = self._result(ticket)
        if result.path is None:
            return None, 0, 0
        return result.path, result.meta_len, result.region_len

    def release(self, ticket: str) -> None:
        """Free a staged result, closing any spill-file map it held."""
        result = self._staged.pop(ticket, None)
        if result is not None:
            result.close()

    def _result(self, ticket: str) -> StagedResult:
        try:
            return self._staged[ticket]
        except KeyError:
            raise RepositoryError(
                f"unknown or evicted staging ticket {ticket!r}"
            ) from None
