"""Content digests over materialised query results.

One digest definition shared by every consumer that makes a
byte-identity claim: the differential tests compare executors with
it, the ``perf/`` benchmark pins golden results with it, and the query
server returns it with every response so clients (and the CI smoke
gate) can hold served results to the single-shot CLI bar without
shipping the rows twice.

The definition is blake2b over the ``repr`` of every region row
``(id, chrom, left, right, strand, v...)`` in dataset order.  Hashing
streams, so feeding the reprs of many rows joined into one update
yields the same digest as one update per row.
"""

from __future__ import annotations

import hashlib
from itertools import islice

#: Rows joined into one hash update: large enough that per-update
#: overhead vanishes, small enough that the joined text of a big sample
#: never has to exist at once.
_ROWS_PER_UPDATE = 2048


def _update_dataset(h, dataset) -> None:
    """Feed the reprs of every region row of *dataset* to *h*."""
    for sample in dataset:
        rows = sample.rows()
        while text := "".join(map(repr, islice(rows, _ROWS_PER_UPDATE))):
            h.update(text.encode())


def dataset_digest(dataset) -> str:
    """Order-sensitive digest of one dataset's region rows."""
    h = hashlib.blake2b(digest_size=16)
    _update_dataset(h, dataset)
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
        _update_dataset(h, results[name])
    return h.hexdigest()
