"""Zero-copy array shipping for the parallel backend.

The parallel engine fans genometric work out to ``ProcessPoolExecutor``
workers.  Pickling every ``ChromBlock`` array into each task payload
copies the same experiment columns once per (pair, chromosome) morsel;
for store-backed plans the columns are immutable numpy arrays, so they
can instead be placed once into ``multiprocessing.shared_memory``
segments and referenced by name from every task.

The protocol is deliberately tiny:

* the **parent** owns an :class:`ArrayShipper`.  ``ship(array)`` returns
  a picklable *handle* -- ``("mmap", path, offset, shape, dtype)`` when
  the array is already a view into a persisted store segment (see
  :func:`repro.store.persist.mmap_descriptor`; the worker re-maps the
  immutable file, so nothing is copied at all), else
  ``("shm", name, shape, dtype)`` backed by a segment the shipper
  created, or ``("raw", array)`` when shipping falls back to pickle
  (shared memory unavailable or exhausted, or the array is too small
  to be worth a segment).  Which of the three an array gets is decided
  from what the shipper observes, never from a setting.  Handles are
  memoised per array object, so the same experiment block shipped to
  forty morsels costs one segment.
* **workers** call :func:`materialise` on the handle list, compute over
  the returned views, and invoke the release callback before returning.
  Attached segments are closed but never unlinked by workers (on Python
  3.11 an attach does not register with the resource tracker, and
  unlinking is the creator's job).
* the parent's ``release_unused()`` -- called by the backend whenever a
  query's context is replaced or unbound -- unlinks the segments of,
  and forgets, every array the query just ended did not ship.  A
  long-lived backend thus holds only the last query's arrays, and an
  array every query ships (a resident source's blocks) keeps its one
  segment across queries.  ``close()`` -- when the backend closes --
  closes and **unlinks** every segment it created; it is idempotent and
  also runs on interpreter teardown as a last resort.

Segment names are system-assigned (``SharedMemory(create=True)`` with no
explicit name), which makes collisions impossible across concurrent
sessions; the handle carries the name, shape and dtype so the worker can
rebuild the exact view.

This module is the *only* place allowed to construct ``SharedMemory``
objects (``benchmarks/lint_repo.py`` enforces the ban elsewhere).
"""

from __future__ import annotations

import numpy as np

# Arrays below this many bytes ride the pickle anyway: a segment costs a
# file descriptor plus two syscalls, which beats pickling only once the
# payload is non-trivial.
MIN_SHARED_BYTES = 2048


class ArrayShipper:
    """Parent-side owner of shared-memory segments for numpy arrays.

    Create one per parallel backend, ``ship()`` arrays into task
    payloads, ``release_unused()`` between queries and ``close()`` when
    the backend closes -- segments live as long as the queries that
    read them.  Shipping through segments stays on until creating one
    fails; ``enabled=False`` is the test seam for the pickle fallback.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._segments: dict = {}  # id(array) -> its segment
        self._memo: dict = {}
        self._shipped: set = set()  # ids shipped since release_unused()
        self.bytes_shared = 0
        self.bytes_pickled = 0
        self.bytes_mapped = 0

    def ship(self, array: np.ndarray) -> tuple:
        """Return a picklable handle for *array* (segment or raw)."""
        key = id(array)
        self._shipped.add(key)
        cached = self._memo.get(key)
        if cached is not None:
            return cached[1]
        handle = self._ship_uncached(array)
        self._memo[key] = (array, handle)
        return handle

    def _ship_uncached(self, array: np.ndarray) -> tuple:
        if array.nbytes:
            # Disk-resident arrays ship as ``(path, offset, shape,
            # dtype)`` descriptors whether or not segments work: the file
            # is immutable and already on disk, so the handle costs
            # nothing and the worker's page cache attach is free.
            from repro.store.persist import mmap_descriptor

            descriptor = mmap_descriptor(array)
            if descriptor is not None:
                self.bytes_mapped += array.nbytes
                return ("mmap", *descriptor)
        if (
            not self.enabled
            or array.nbytes == 0  # SharedMemory rejects zero-size segments
            or array.nbytes < MIN_SHARED_BYTES
            or not array.flags.c_contiguous
        ):
            self.bytes_pickled += array.nbytes
            return ("raw", array)
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(
                create=True, size=array.nbytes
            )
        except OSError:
            # Out of fds or /dev/shm space: degrade to pickle, once the
            # budget is exhausted it will likely stay exhausted.
            self.enabled = False
            self.bytes_pickled += array.nbytes
            return ("raw", array)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[:] = array
        del view
        self._segments[id(array)] = segment
        self.bytes_shared += array.nbytes
        return ("shm", segment.name, array.shape, array.dtype.str)

    def segment_names(self) -> list:
        """Names of the segments currently owned (for tests/metrics)."""
        return [segment.name for segment in self._segments.values()]

    def release_unused(self) -> None:
        """Unlink the segments of, and forget, every array no ``ship()``
        asked for since the last call."""
        for key in [key for key in self._memo if key not in self._shipped]:
            del self._memo[key]
            _unlink(self._segments.pop(key, None))
        self._shipped = set()

    def close(self) -> None:
        """Close and unlink every owned segment.  Idempotent."""
        segments, self._segments = self._segments, {}
        self._memo.clear()
        self._shipped = set()
        for segment in segments.values():
            _unlink(segment)

    def __enter__(self) -> "ArrayShipper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def _unlink(segment) -> None:
    """Close and unlink one owned segment (``None``: nothing to do)."""
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def materialise(handles: list) -> tuple:
    """Worker-side: turn shipped handles back into arrays.

    Returns ``(arrays, release)``.  The arrays aligned with *handles*
    are real numpy views over attached segments (or the pickled arrays
    for raw handles); *release* drops the views and closes the
    attachments and must be called before the task returns -- after it,
    the shared views are invalid.
    """
    arrays: list = []
    attached: list = []
    for handle in handles:
        kind = handle[0]
        if kind == "raw":
            arrays.append(handle[1])
            continue
        if kind == "mmap":
            from repro.store.persist import open_segment

            _, path, offset, shape, dtype = handle
            arrays.append(open_segment(path, offset, shape, dtype))
            continue
        _, name, shape, dtype = handle
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
        attached.append(segment)
        arrays.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf))

    def release() -> None:
        arrays.clear()
        while attached:
            attached.pop().close()

    return arrays, release


def segment_exists(name: str) -> bool:
    """True when a shared-memory segment named *name* still exists.

    Test helper: proves ``close()`` really unlinked what it created.
    """
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True
