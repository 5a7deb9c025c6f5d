"""Plan-fingerprint result cache: reuse operator results across runs.

Physical plan nodes carry a *fingerprint* -- a digest of the operator
kind, its resolved parameters and the content digests of everything
below it (:func:`repro.gmql.lang.physical.plan_program` computes them
bottom-up).  Two plan nodes with the same fingerprint are guaranteed to
produce the same dataset, so the interpreter can serve the second one
from this process-wide LRU cache instead of running the kernel.

The cache is content-addressed: source-dataset digests (see
:meth:`repro.store.columnar.DatasetStore.digest`) anchor every
fingerprint, so editing a dataset changes the key and stale results are
never served.  Hit/miss/eviction counters feed ``ExecutionContext``
metrics, ``repro explain --analyze`` and the server's ``/stats``.

With a *directory* (by default ``<store root>/results`` when a
persistent store root is active) every entry is additionally written to
disk, so warm results survive process restarts: a fresh process misses
in memory, loads the entry, and serves the hit without running a single
kernel.  A disk entry holds columns,
not objects: the dataset's name, schema and provenance, and per sample
its id, metadata and column view
(:meth:`~repro.gdm.sample.Sample.columns`), pickled -- no region object
is built to write it, and a load revives samples born as columns.
Content addressing makes the files immortal -- they are only ever
rewritten with identical bytes -- and atomic rename keeps concurrent
processes safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
from collections import OrderedDict

from repro.gdm import Dataset, Sample
from repro.gdm.sample import ColumnRows
from repro.store.persist import store_root

#: Default number of cached operator results kept by the global cache.
DEFAULT_CAPACITY = 64

#: First field of a disk entry; a file holding anything else (an older
#: layout, a foreign pickle) is a miss.
_ENTRY_LAYOUT = "repro-result-columns-1"


def plan_token(obj) -> str:
    """A stable, content-based token for plan parameters.

    Predicates, aggregates, genometric conditions and accumulation
    bounds are plain value objects; walking their instance state
    recursively gives a deterministic signature without each class
    having to implement one.  Unknown objects fall back to ``repr``,
    which is stable for everything the compiler produces.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(plan_token(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(plan_token(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            (plan_token(key), plan_token(value))
            for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    state = _instance_state(obj)
    if state is not None:
        return f"{type(obj).__name__}({plan_token(state)})"
    return repr(obj)


def disk_entry(dataset) -> tuple | None:
    """What the disk level stores of *dataset*: its name, schema and
    provenance, and per sample the id, metadata and column state
    ``(runs, lefts, rights, strands, values)``.  ``None`` for a value
    that is not a dataset, or when some sample has no column view (rows
    of unequal width)."""
    if not isinstance(dataset, Dataset):
        return None
    samples = []
    for sample in dataset:
        rows = sample.columns()
        if rows is None:
            return None
        samples.append((sample.id, sample.meta, rows.runs, rows.lefts,
                        rows.rights, rows.strands, rows.values))
    return (_ENTRY_LAYOUT, dataset.name, dataset.schema, dataset.provenance,
            samples)


def revive_entry(entry):
    """The dataset a :func:`disk_entry` describes, its samples born as
    columns; ``None`` for anything that is not such an entry."""
    if not (isinstance(entry, tuple) and entry[:1] == (_ENTRY_LAYOUT,)):
        return None
    __, name, schema, provenance, samples = entry
    dataset = Dataset(name, schema, [
        Sample(sample_id, ColumnRows(*columns), meta)
        for sample_id, meta, *columns in samples
    ], validate=False)
    dataset.provenance = provenance
    return dataset


def _instance_state(obj) -> dict | None:
    """Instance attributes of a value object, or ``None`` for exotica."""
    if hasattr(obj, "__dict__"):
        return dict(vars(obj))
    slots: dict = {}
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                slots[name] = getattr(obj, name)
    return slots or None


class ResultCache:
    """A size-bounded LRU of ``fingerprint -> Dataset`` entries.

    With a *directory*, entries are also written to disk on ``put``
    (:func:`disk_entry`) and in-memory misses consult the files before
    giving up -- the second cache level that survives restarts.  Memory
    eviction never removes files (they back the next process's warm
    start); ``clear`` does.

    The cache is thread-safe: a long-lived query server runs many
    queries against one process-wide instance concurrently, and an
    unguarded ``OrderedDict`` would corrupt its recency order (or lose
    entries mid-``move_to_end``) under interleaved get/put/evict.  One
    re-entrant lock serialises every mutation; disk writes stay inside
    it so two threads never race the same ``.tmp`` file (the atomic
    rename already protects separate *processes*).
    """

    def __init__(
        self, capacity: int | None = None, directory: str | None = None
    ) -> None:
        if directory is None:
            root = store_root()
            directory = os.path.join(root, "results") if root else None
        self.capacity = capacity if capacity is not None else DEFAULT_CAPACITY
        self.directory = directory
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def _path(self, key: str) -> str:
        # Fingerprints are hex digests, but hash defensively so any
        # plan-token ever used as a key still maps to a safe filename.
        name = hashlib.blake2b(key.encode(), digest_size=16).hexdigest()
        return os.path.join(self.directory, f"{name}.result")

    def _load(self, key: str):
        """A disk entry for *key*, or ``None`` (corruption tolerated)."""
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                dataset = revive_entry(pickle.load(handle))
        except FileNotFoundError:  # the common case
            return None
        except Exception:
            dataset = None
        if dataset is None:
            # A truncated, unreadable or older-layout file degrades to a
            # recompute, never an error; dropping it lets the next put
            # of this key write a current entry.
            with contextlib.suppress(OSError):
                os.unlink(path)
        return dataset

    def _persist(self, key: str, value) -> None:
        """Write *value*'s :func:`disk_entry` beside the store (atomic,
        best-effort; a value without one stays in memory only)."""
        if self.directory is None:
            return
        path = self._path(key)
        if os.path.exists(path):
            return
        entry = disk_entry(value)
        if entry is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            tmp = f"{path}.tmp-{os.getpid()}"
            with open(tmp, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # Full disk or permission loss: the in-memory cache still
            # works, only restart warmth is lost.
            return
        self.disk_stores += 1

    def get(self, key: str):
        """The cached dataset for *key*, or ``None`` (recency updated)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._load(key)
                if entry is None:
                    self.misses += 1
                    return None
                self.disk_hits += 1
                if self.capacity > 0:
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                self.hits += 1
                return entry
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, value) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        with self._lock:
            if self.capacity <= 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._persist(key, value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (disk files included) and reset the counters."""
        with self._lock:
            self._entries.clear()
            if self.directory is not None and os.path.isdir(self.directory):
                for name in os.listdir(self.directory):
                    if name.endswith(".result"):
                        try:
                            os.unlink(os.path.join(self.directory, name))
                        except OSError:  # pragma: no cover - concurrent clear
                            pass
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.disk_hits = 0
            self.disk_stores = 0

    def stats(self) -> dict:
        """Plain-dict counter snapshot (CLI and server reporting)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "disk_hits": self.disk_hits,
                "disk_stores": self.disk_stores,
                "directory": self.directory,
            }


_GLOBAL_CACHE: ResultCache | None = None
_GLOBAL_CACHE_LOCK = threading.Lock()


def result_cache() -> ResultCache:
    """The process-wide result cache (created on first use)."""
    global _GLOBAL_CACHE
    with _GLOBAL_CACHE_LOCK:
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = ResultCache()
        return _GLOBAL_CACHE


def reset_result_cache(
    capacity: int | None = None, directory: str | None = None
) -> ResultCache:
    """Replace the global cache (benchmarks and tests isolate with this).

    Disk entries of the previous cache are untouched: the fresh cache
    resolves its own directory and will re-serve them on miss, which is
    exactly the restart-survival behaviour being modelled.
    """
    global _GLOBAL_CACHE
    with _GLOBAL_CACHE_LOCK:
        _GLOBAL_CACHE = ResultCache(capacity, directory)
        return _GLOBAL_CACHE
