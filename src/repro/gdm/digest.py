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
from typing import Iterator

import numpy as np

from repro.gdm.sample import ColumnRows, listed

#: Rows joined into one hash update: large enough that per-update
#: overhead vanishes, small enough that the joined text of a big sample
#: never has to exist at once.
_ROWS_PER_UPDATE = 2048


def _column_texts(sample_id: int, columns: ColumnRows) -> Iterator[str]:
    """The reprs of the rows of *columns*, joined a chunk at a time.

    Each chromosome run is one ``%`` template with the sample id and
    the chromosome's ``repr`` baked in: ``%d`` for the coordinates and
    integer-array values (an int's ``%d`` is its ``repr``), ``%r`` for
    everything else.  Arrays are sliced per chunk before ``tolist``.
    """
    fields = [columns.lefts, columns.rights, columns.strands,
              *columns.values]
    specs = ", ".join(
        "%d" if isinstance(field, np.ndarray) and field.dtype.kind in "iu"
        else "%r"
        for field in fields
    )
    position = 0
    for chrom, count in columns.runs:
        head = f"({sample_id!r}, {chrom!r}, ".replace("%", "%%")
        template = f"{head}{specs})"
        end = position + count
        for lo in range(position, end, _ROWS_PER_UPDATE):
            hi = min(lo + _ROWS_PER_UPDATE, end)
            yield "".join(map(template.__mod__, zip(
                *[listed(field[lo:hi]) for field in fields]
            )))
        position = end


def _update_dataset(h, dataset) -> None:
    """Feed the reprs of every region row of *dataset* to *h*."""
    for sample in dataset:
        held = sample.held_rows()
        if isinstance(held, ColumnRows):
            for text in _column_texts(sample.id, held):
                h.update(text.encode())
            continue
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
