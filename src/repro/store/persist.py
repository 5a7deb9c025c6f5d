"""Disk-native persistence for the columnar store: persist once, mmap forever.

Everything in :mod:`repro.store.columnar` used to live and die with one
process: every run rebuilt :class:`~repro.store.columnar.SampleBlocks`
from region objects, every worker received a copy, and a dataset larger
than RAM was simply fatal.  This module gives the store a disk-native
representation so blocks are **built once, persisted, and memory-mapped
by every later consumer** -- the storage-centric system design the
paper's repository abstraction (sections 3-4) assumes:

* :func:`persist_store` writes one content-addressed directory per
  ``(dataset digest, bin size)`` under a *store root*:
  ``<root>/<digest>-b<bin>/`` holding a single ``segments.bin`` with
  every per-chromosome column (coordinates, strands, row index, the
  derived sorted views, zone-map bins) 64-byte aligned, plus a
  ``MANIFEST.json`` sidecar carrying the versioned header, the schema,
  per-chromosome segment descriptors and zone-map scalars.  Writes are
  atomic (write into a ``.tmp-`` sibling, then ``os.rename``), so a
  reader never observes a half-written store and concurrent writers
  race harmlessly (content-addressing makes their outputs identical).
* :class:`PersistedStore` opens such a directory: the manifest is
  parsed once, ``segments.bin`` is mapped once via ``np.memmap``, and
  each chromosome's columns become zero-copy views into the map --
  nothing is read from disk until a kernel actually touches a page.
* :func:`mmap_descriptor` / :func:`open_segment` are the handle
  protocol: an array that is a view into a persisted segment can be
  described as ``(path, offset, shape, dtype)`` and re-opened by any
  process, which is how :class:`repro.store.shm.ArrayShipper` ships
  disk-resident blocks to workers for free.
* :class:`ResidencyLedger` enforces the block-residency budget: bytes
  of *in-memory built* blocks are charged against a process-wide LRU
  budget and the least-recently-used blocks are evicted (spilled) when
  the budget would overflow -- datasets larger than RAM degrade to
  re-loading instead of OOMing.  Memory-mapped blocks are never
  charged: the page cache already evicts them for free.

The store root is whatever :func:`set_store_root` was given (the CLI
``--store-dir`` flag lands there); without a root every code path
behaves exactly as before -- purely in-memory.

This module is the *only* place allowed to construct ``np.memmap`` /
``mmap.mmap`` objects (``benchmarks/lint_repo.py`` enforces the ban
elsewhere), so segment lifecycles stay in one auditable file.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np

#: Format identifier and version written into every manifest.  Readers
#: reject anything else and fall back to an in-memory build, so the
#: layout can evolve without ever serving stale bytes.
STORE_FORMAT = "repro-columnar-store"
STORE_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
SEGMENTS_NAME = "segments.bin"

#: Manifest key of the dataset-union blocks (DIFFERENCE masks).  Real
#: sample keys are stringified integers, so this can never collide.
UNION_KEY = "__union__"

#: Segment alignment: every column starts on a 64-byte boundary so any
#: dtype view is aligned and cache lines are not shared across columns.
ALIGNMENT = 64

#: The columns persisted per (sample, chromosome) block.  ``starts`` /
#: ``stops`` / ``index`` / ``sorted_*`` / ``left_*`` / ``zero_positions``
#: / ``bins`` are int64; ``strands`` is int8.  Derived views are
#: persisted too: the cold build pays the sorts once so warm opens skip
#: them entirely *and* probe-side kernels ship pure mmap handles.
BLOCK_COLUMNS = (
    "starts",
    "stops",
    "strands",
    "index",
    "sorted_starts",
    "sorted_stops",
    "left_order",
    "left_stops",
    "zero_positions",
    "bins",
)

#: Magic prefix of staged-result spill files (see
#: :mod:`repro.repository.staging`): 8 magic bytes then two little-endian
#: uint64 section lengths (metadata, regions).
BLOB_MAGIC = b"RSTAGE1\0"
BLOB_HEADER = struct.Struct("<8sQQ")


# -- store root resolution ------------------------------------------------------

_CONFIGURED_ROOT: str | None = None
_CONFIGURED_SYNC: bool | None = None


def set_store_root(path: str | None, sync: bool | None = None) -> None:
    """Configure the process-wide store root (``None`` turns it off).

    The CLI ``--store-dir`` flag lands here.  *sync*, when given, also
    fixes the persist mode: ``True`` persists synchronously on first
    build (short-lived CLI processes must not exit mid-background-write);
    ``False`` or ``None`` keeps the default, background persistence.
    """
    global _CONFIGURED_ROOT, _CONFIGURED_SYNC
    _CONFIGURED_ROOT = str(path) if path else None
    _CONFIGURED_SYNC = sync


def store_root() -> str | None:
    """The active store root: what :func:`set_store_root` was given."""
    return _CONFIGURED_ROOT


def persist_sync_default() -> bool:
    """Whether persistence should run synchronously by default.

    ``set_store_root(..., sync=True)`` makes the first in-memory build
    block until segments are on disk -- what short-lived processes and
    deterministic tests want.  The default is background persistence:
    queries never wait on the disk.
    """
    return bool(_CONFIGURED_SYNC)


def store_directory(root: str | os.PathLike, digest: str, bin_size: int) -> Path:
    """The content-addressed directory of one persisted store."""
    return Path(root) / f"{digest}-b{int(bin_size)}"


# -- segment writing ------------------------------------------------------------


class _SegmentWriter:
    """Appends aligned arrays to one open segment file.

    ``write`` returns the JSON-serialisable descriptor
    ``[offset, count, dtype]`` recorded in the manifest.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self._offset = 0

    def write(self, array: np.ndarray) -> list:
        array = np.ascontiguousarray(array)
        padding = (-self._offset) % ALIGNMENT
        if padding:
            self._handle.write(b"\0" * padding)
            self._offset += padding
        descriptor = [self._offset, int(array.size), array.dtype.str]
        self._handle.write(array.tobytes())
        self._offset += array.nbytes
        return descriptor


def _write_blocks(writer: _SegmentWriter, blocks) -> dict:
    """Serialise one :class:`SampleBlocks` into the segment file.

    Accessing the derived properties (``sorted_starts``...) here forces
    their computation -- deliberate: the cold build pays every sort
    once, and warm opens inherit them as plain segment views.
    """
    chroms = {}
    for chrom, block in blocks.chroms.items():
        entry = blocks.zone_map.entries[chrom]
        chroms[chrom] = {
            "max_width": block.max_width,
            "zone": {
                "count": entry.count,
                "min_start": entry.min_start,
                "max_start": entry.max_start,
                "min_stop": entry.min_stop,
                "max_stop": entry.max_stop,
            },
            "columns": {
                "starts": writer.write(block.starts),
                "stops": writer.write(block.stops),
                "strands": writer.write(block.strands),
                "index": writer.write(block.index),
                "sorted_starts": writer.write(block.sorted_starts),
                "sorted_stops": writer.write(block.sorted_stops),
                "left_order": writer.write(block.left_order),
                "left_stops": writer.write(block.left_stops),
                "zero_positions": writer.write(block.zero_positions),
                "bins": writer.write(entry.bins),
            },
        }
    return {"n_regions": blocks.n_regions, "chroms": chroms}


def persist_store(store) -> Path | None:
    """Write *store*'s blocks to its root; returns the final directory.

    Content-addressed and atomic: segments and manifest are written into
    a ``.tmp-`` sibling which is then renamed into place.  If another
    process (or thread) wins the rename race its output is byte-wise
    interchangeable, so the loser just discards its temporary directory.
    Blocks come from :meth:`DatasetStore.blocks` / ``union_blocks`` like
    everyone else's: blocks already memoised on a region list are
    written as they are, missing ones are built (and charged to the
    residency ledger, so a budget still bounds what a persist holds).

    Returns ``None`` when the store has no root configured.
    """
    root = store.root
    if root is None:
        return None
    if store._persist_thread is None:
        # This call is the store's one persist: block builds below must
        # not schedule another.
        store._persist_thread = True
    dataset = store._dataset
    final = store_directory(root, store.digest(), store.bin_size)
    if (final / MANIFEST_NAME).is_file():
        return final
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / (
        f".tmp-{final.name}-{os.getpid()}-{threading.get_ident()}"
    )
    tmp.mkdir()
    try:
        samples = {}
        with open(tmp / SEGMENTS_NAME, "wb") as handle:
            writer = _SegmentWriter(handle)
            for sample in dataset:
                samples[str(sample.id)] = _write_blocks(
                    writer, store.blocks(sample)
                )
            samples[UNION_KEY] = _write_blocks(writer, store.union_blocks())
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "digest": store.digest(),
            "bin_size": store.bin_size,
            "segments": SEGMENTS_NAME,
            "schema": [
                {"name": d.name, "type": d.type.name}
                for d in dataset.schema
            ],
            "samples": samples,
        }
        # ``dumps``, not ``dump``: only the one-shot call runs the C
        # encoder.  The bytes are the same.
        with open(tmp / MANIFEST_NAME, "w") as handle:
            handle.write(json.dumps(manifest, sort_keys=True))
        try:
            os.rename(tmp, final)
        except OSError:
            # Lost the race: an identical store already landed.
            if not (final / MANIFEST_NAME).is_file():
                raise
        return final
    finally:
        if tmp.is_dir():
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)


# -- opening persisted stores ---------------------------------------------------


class PersistedStore:
    """One opened store directory: parsed manifest + lazily mapped segments.

    ``sample_blocks`` reconstructs :class:`SampleBlocks` whose arrays are
    zero-copy views into the single ``segments.bin`` memory map; pages
    fault in only when a kernel touches them, so opening a terabyte
    store costs a manifest parse and one ``mmap`` call.
    """

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.bin_size = int(manifest["bin_size"])
        self._map: np.memmap | None = None

    @classmethod
    def open(
        cls, root: str | os.PathLike, digest: str, bin_size: int
    ) -> "PersistedStore | None":
        """Open the persisted store for ``(digest, bin_size)``, or ``None``.

        Any problem -- missing directory, unreadable or mis-versioned
        manifest, digest mismatch -- degrades to ``None``: the caller
        rebuilds in memory and (eventually) re-persists.
        """
        directory = store_directory(root, digest, bin_size)
        path = directory / MANIFEST_NAME
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            manifest.get("format") != STORE_FORMAT
            or manifest.get("version") != STORE_VERSION
            or manifest.get("digest") != digest
            or manifest.get("bin_size") != bin_size
        ):
            return None
        if not (directory / manifest.get("segments", SEGMENTS_NAME)).is_file():
            return None
        return cls(directory, manifest)

    @property
    def segments_path(self) -> Path:
        return self.directory / self.manifest.get("segments", SEGMENTS_NAME)

    def _memmap(self) -> np.memmap:
        if self._map is None:
            self._map = np.memmap(self.segments_path, dtype=np.uint8, mode="r")
        return self._map

    def _view(self, descriptor: list) -> np.ndarray:
        offset, count, dtype = descriptor
        dtype = np.dtype(dtype)
        raw = self._memmap()[offset: offset + count * dtype.itemsize]
        return raw.view(dtype)

    def sample_blocks(self, key, n_regions: int | None = None):
        """Blocks of one sample (or :data:`UNION_KEY`) as segment views.

        Returns ``None`` when the manifest has no such sample or its
        recorded region count disagrees with *n_regions* (a defensive
        impossibility under content addressing, but cheap to check).
        """
        from repro.store.columnar import (
            ChromBlock,
            SampleBlocks,
            ZoneEntry,
            ZoneMap,
        )

        entry = self.manifest["samples"].get(
            UNION_KEY if key is None else str(key)
        )
        if entry is None:
            return None
        if n_regions is not None and entry["n_regions"] != n_regions:
            return None
        chroms: dict = {}
        zone_map = ZoneMap(self.bin_size)
        for chrom, info in entry["chroms"].items():
            columns = info["columns"]
            block = ChromBlock(
                chrom,
                self._view(columns["starts"]),
                self._view(columns["stops"]),
                self._view(columns["index"]),
                self._view(columns["strands"]),
            )
            block._sorted_starts = self._view(columns["sorted_starts"])
            block._sorted_stops = self._view(columns["sorted_stops"])
            block._left_order = self._view(columns["left_order"])
            block._left_stops = self._view(columns["left_stops"])
            block._zero_positions = self._view(columns["zero_positions"])
            block._max_width = int(info["max_width"])
            chroms[chrom] = block
            zone_map.entries[chrom] = ZoneEntry.from_stats(
                chrom,
                bins=self._view(columns["bins"]),
                **info["zone"],
            )
        return SampleBlocks.from_parts(
            None if key is None else key,
            entry["n_regions"],
            chroms,
            zone_map,
        )


# -- the mmap handle protocol ---------------------------------------------------


def mmap_descriptor(array: np.ndarray) -> tuple | None:
    """``(path, offset, shape, dtype)`` when *array* views a segment file.

    Walks the ``base`` chain to the owning ``np.memmap``; returns
    ``None`` for ordinary in-memory arrays, non-contiguous views, or
    anonymous maps.  The descriptor plus :func:`open_segment` is enough
    for any process to rebuild the exact view without copying a byte --
    the zero-cost shipping handle of
    :class:`repro.store.shm.ArrayShipper`.
    """
    if not isinstance(array, np.ndarray) or array.nbytes == 0:
        return None
    if not array.flags.c_contiguous:
        return None
    base = array
    # Stop at the deepest *ndarray*: an np.memmap's own ``base`` is the
    # raw ``mmap.mmap`` buffer, one step past where we want to land.
    while isinstance(getattr(base, "base", None), np.ndarray):
        base = base.base
    if not isinstance(base, np.memmap):
        return None
    filename = getattr(base, "filename", None)
    if filename is None:
        return None
    offset = (
        array.__array_interface__["data"][0]
        - base.__array_interface__["data"][0]
        + int(base.offset)
    )
    if offset < 0:
        return None
    return (str(filename), int(offset), array.shape, array.dtype.str)


#: Worker-side memo of opened segment maps.  Segment files are immutable
#: once renamed into place (content addressing), so a map stays valid for
#: the worker's lifetime and repeated morsels attach for free.
_OPENED_MAPS: dict = {}


def open_segment(path: str, offset: int, shape, dtype) -> np.ndarray:
    """Re-open the view described by an mmap handle (worker side)."""
    mapped = _OPENED_MAPS.get(path)
    if mapped is None:
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        _OPENED_MAPS[path] = mapped
    dtype = np.dtype(dtype)
    count = int(np.prod(shape)) if shape else 1
    raw = mapped[offset: offset + count * dtype.itemsize]
    return raw.view(dtype).reshape(shape)


def close_opened_segments() -> None:
    """Drop the worker-side segment memo (tests and long-lived services)."""
    _OPENED_MAPS.clear()


# -- staged-blob helpers (used by repository staging) ---------------------------


def atomic_write_blob(path: str | os.PathLike, sections: tuple) -> None:
    """Write a staged blob ``(meta, regions)`` with header, atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta, regions = sections
    tmp = path.parent / f".tmp-{path.name}-{os.getpid()}-{threading.get_ident()}"
    with open(tmp, "wb") as handle:
        handle.write(BLOB_HEADER.pack(BLOB_MAGIC, len(meta), len(regions)))
        handle.write(meta)
        handle.write(regions)
    os.replace(tmp, path)


def map_blob(path: str | os.PathLike) -> tuple | None:
    """Map a staged blob; returns ``(map, meta_len, region_len)``.

    The map is a read-only ``mmap.mmap`` whose payload starts right
    after the header; returns ``None`` when the file is missing,
    truncated or carries a foreign magic (caller rewrites it).
    """
    import mmap as _mmap

    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        try:
            mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        except (OSError, ValueError):  # empty or unmappable
            return None
    if len(mapped) < BLOB_HEADER.size:
        mapped.close()
        return None
    magic, meta_len, region_len = BLOB_HEADER.unpack_from(mapped, 0)
    if (
        magic != BLOB_MAGIC
        or BLOB_HEADER.size + meta_len + region_len != len(mapped)
    ):
        mapped.close()
        return None
    return (mapped, meta_len, region_len)


# -- the block-residency budget -------------------------------------------------


def residency_budget_from_env(default: int | None = None) -> int | None:
    """Budget bytes from ``REPRO_STORE_BUDGET_MB`` (``None`` = unlimited)."""
    raw = os.environ.get("REPRO_STORE_BUDGET_MB", "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if value <= 0:
        return default
    return int(value * 1024 * 1024)


class ResidencyLedger:
    """Process-wide LRU accounting of in-memory built block bytes.

    Owners charge the bytes of blocks they *build* (never blocks they
    map -- the page cache evicts those for free): the
    :class:`~repro.store.columnar.RegionMemo` of a region list for its
    sample blocks, a :class:`~repro.store.columnar.DatasetStore` for its
    union blocks.  When the budget would overflow, least-recently-used
    blocks are evicted from their owners (``owner._evict_resident(key)``):
    persisted blocks come back as mmap views, unpersisted ones are
    rebuilt on demand.  Either way the process spills instead of OOMing.

    A charge lives exactly as long as its owner.  Owners are registered
    under a serial number (an ``id()`` is only ever looked up through a
    weak reference that must still point at the same object), and each
    owner's weak-reference callback queues its serial when it dies; every
    ledger call first drops the queued owners' charges, so dead bytes
    neither count against the budget nor make a live block the victim.
    One lock guards the ledger, which concurrent queries share.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget_bytes = (
            budget_bytes
            if budget_bytes is not None
            else residency_budget_from_env()
        )
        #: ``(owner serial, block key) -> nbytes``, in least-recently-used
        #: first order.
        self._entries: OrderedDict = OrderedDict()
        #: ``owner serial -> (weakref to owner, id(owner), charged keys)``.
        self._owners: dict = {}
        #: ``id(owner) -> serial`` for the registered owners.
        self._serial_of_id: dict = {}
        #: Serials of owners that died, queued by weakref callbacks (which
        #: may run on any thread, so they never take the lock).
        self._dead: list = []
        self._serials = itertools.count()
        self._resident = 0
        self._lock = threading.Lock()
        self.evictions = 0

    # -- bookkeeping (lock held) ---------------------------------------------

    def _reap(self) -> None:
        while self._dead:
            self._drop_owner(self._dead.pop())

    def _drop_owner(self, serial: int) -> None:
        record = self._owners.pop(serial, None)
        if record is None:
            return
        __, ident, keys = record
        if self._serial_of_id.get(ident) == serial:
            del self._serial_of_id[ident]
        for key in keys:
            self._resident -= self._entries.pop((serial, key), 0)

    def _serial(self, owner, register: bool) -> int | None:
        """The serial of live *owner*; registers it when *register*."""
        ident = id(owner)
        serial = self._serial_of_id.get(ident)
        if serial is not None:
            if self._owners[serial][0]() is owner:
                return serial
            # The id of an owner whose death is not processed yet.
            self._drop_owner(serial)
        if not register:
            return None
        serial = next(self._serials)
        dead = self._dead
        ref = weakref.ref(owner, lambda __, serial=serial: dead.append(serial))
        self._owners[serial] = (ref, ident, set())
        self._serial_of_id[ident] = serial
        return serial

    # -- the public surface ---------------------------------------------------

    def __len__(self) -> int:
        """Number of live charges."""
        with self._lock:
            self._reap()
            return len(self._entries)

    def resident_bytes(self) -> int:
        """Bytes charged by live owners."""
        with self._lock:
            self._reap()
            return self._resident

    def charge(self, owner, key, nbytes: int) -> None:
        """Account a freshly built block set and enforce the budget."""
        with self._lock:
            self._reap()
            serial = self._serial(owner, register=True)
            self._owners[serial][2].add(key)
            token = (serial, key)
            self._resident += int(nbytes) - self._entries.get(token, 0)
            self._entries[token] = int(nbytes)
            self._entries.move_to_end(token)
            self._enforce(exempt=token)

    def touch(self, owner, key) -> None:
        """Refresh a block set's recency (no-op when not charged)."""
        with self._lock:
            self._reap()
            serial = self._serial(owner, register=False)
            token = (serial, key)
            if serial is not None and token in self._entries:
                self._entries.move_to_end(token)

    def _enforce(self, exempt) -> None:
        if self.budget_bytes is None:
            return
        while self._resident > self.budget_bytes:
            victim = next(
                (token for token in self._entries if token != exempt), None
            )
            if victim is None:
                # Only the block just charged remains; it must stay
                # resident for the caller to compute on.
                return
            serial, key = victim
            self._resident -= self._entries.pop(victim)
            ref, __, keys = self._owners[serial]
            keys.discard(key)
            owner = ref()
            if owner is not None:
                # Owners' callbacks only drop a reference: safe under
                # the lock, and no rebuild can slip in between.
                owner._evict_resident(key)
                self.evictions += 1


_LEDGER: ResidencyLedger | None = None


def residency_ledger() -> ResidencyLedger:
    """The process-wide residency ledger (created on first use)."""
    global _LEDGER
    if _LEDGER is None:
        _LEDGER = ResidencyLedger()
    return _LEDGER


def reset_residency_ledger(
    budget_bytes: int | None = None,
) -> ResidencyLedger:
    """Replace the global ledger (tests and benchmarks isolate with this)."""
    global _LEDGER
    _LEDGER = ResidencyLedger(budget_bytes)
    return _LEDGER
