"""Content digests over materialised query results.

One digest definition shared by every consumer that makes a
byte-identity claim: the differential tests compare executors with
it, the ``perf/`` benchmark pins golden results with it, and the query
server returns it with every response so clients (and the CI smoke
gate) can hold served results to the single-shot CLI bar without
shipping the rows twice.
"""

from __future__ import annotations

import hashlib


def dataset_digest(dataset) -> str:
    """Order-sensitive digest of one dataset's region rows."""
    h = hashlib.blake2b(digest_size=16)
    for row in dataset.region_rows():
        h.update(repr(row).encode())
    return h.hexdigest()


def results_digest(results: dict) -> str:
    """Engine-independent digest of every materialised dataset's rows.

    *results* is the ``{output name: Dataset}`` mapping an interpreter
    run produces; names participate so renaming an output changes the
    digest even when the rows do not.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(results):
        h.update(name.encode())
        for row in results[name].region_rows():
            h.update(repr(row).encode())
    return h.hexdigest()
