"""The result digest keeps its per-row definition.

``results_digest`` / ``dataset_digest`` hash many rows per update and
build the row tuples without ``GenomicRegion.__iter__``; hashing
streams, so the bytes -- and the digests pinned in ``perf/golden.json``
and compared by every differential test -- must stay exactly those of
the original one-update-per-row definition, re-implemented here.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdm import (
    Dataset,
    FLOAT,
    GenomicRegion,
    INT,
    Metadata,
    RegionSchema,
    STR,
    Sample,
    dataset_digest,
    results_digest,
)
from repro.gdm.sample import ColumnRows

SCHEMA = RegionSchema.of(("score", FLOAT), ("name", STR), ("hits", INT))


def update_per_row(h, dataset) -> None:
    for sample in dataset:
        for region in sample.regions:
            h.update(repr((sample.id, *region)).encode())


def per_row_dataset_digest(dataset) -> str:
    h = hashlib.blake2b(digest_size=16)
    update_per_row(h, dataset)
    return h.hexdigest()


def per_row_results_digest(results: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(results):
        h.update(name.encode())
        update_per_row(h, results[name])
    return h.hexdigest()


def awkward_regions(count: int) -> list:
    """Values whose ``repr`` is easy to get wrong: signed zero, NaN,
    infinities, missing values, quotes, non-ASCII text, big ints."""
    floats = [-0.0, 0.0, float("nan"), float("inf"), 1e-300, None, 2.5]
    names = ["peak", None, "", "it's", 'say "hi"', "naïve", "\t\n"]
    hits = [0, -1, None, 2**70, 7]
    return [
        GenomicRegion(
            f"chr{1 + i % 3}", i, i + (i % 4), "+-*"[i % 3],
            (floats[i % 7], names[i % 7], hits[i % 5]),
        )
        for i in range(count)
    ]


def make_dataset(name: str, sizes: list) -> Dataset:
    samples = [
        Sample(sample_id, awkward_regions(size), Metadata({"n": str(size)}))
        for sample_id, size in enumerate(sizes, start=1)
    ]
    return Dataset(name, SCHEMA, samples, validate=False)


@pytest.mark.parametrize("sizes", [
    [],  # an empty dataset
    [0],  # one empty sample
    [1],
    [35, 0, 12],
    [5000, 3],  # more rows than one hash update carries
])
def test_digests_equal_the_per_row_definition(sizes):
    dataset = make_dataset("D", sizes)
    assert dataset_digest(dataset) == per_row_dataset_digest(dataset)
    results = {"R": dataset, "EMPTY": make_dataset("E", []),
               "A": make_dataset("A", [2])}
    assert results_digest(results) == per_row_results_digest(results)


def test_region_rows_match_the_region_iterator():
    dataset = make_dataset("D", [40, 0, 9])
    expected = [
        (sample.id, *region) for sample in dataset
        for region in sample.regions
    ]
    assert repr(list(dataset.region_rows())) == repr(expected)


def test_digest_still_separates_what_it_separated():
    base = make_dataset("D", [10])
    assert results_digest({"R": base}) != results_digest({"S": base})
    assert dataset_digest(base) != dataset_digest(make_dataset("D", [11]))
    assert dataset_digest(make_dataset("D", [])) == dataset_digest(
        make_dataset("D", [0])
    )


# -- samples held as columns: the template path ------------------------------

#: Chromosome names and strings whose ``repr`` or ``%`` handling is easy
#: to get wrong.
_NAMES = ["chr1", "c%d", "100%", "it's", 'say "hi"', "%r%%", "naïve"]
_BIG = 1 << 70
_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
)
_ANY = st.one_of(
    st.none(), st.booleans(), _FLOATS, st.sampled_from(_NAMES),
    st.integers(-_BIG, _BIG), st.text(max_size=4),
)


@st.composite
def column_samples(draw):
    """``(rows, ColumnRows)``: the same rows as Python tuples and as
    columns of every kind a column can be."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(_NAMES), st.integers(1, 5)), max_size=4
    ))
    n = sum(count for __, count in runs)
    big = draw(st.booleans())
    lefts = draw(st.lists(st.integers(0, _BIG if big else 1000),
                          min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    rights = [left + width for left, width in zip(lefts, widths)]
    strands = draw(st.lists(st.sampled_from("+-*"), min_size=n, max_size=n))
    kinds = draw(st.lists(
        st.sampled_from(["float64", "int64", "object", "list"]), max_size=4
    ))
    values, columns = [], []
    for kind in kinds:
        if kind == "float64":
            column = draw(st.lists(_FLOATS, min_size=n, max_size=n))
            columns.append(np.asarray(column, dtype=np.float64))
        elif kind == "int64":
            column = draw(st.lists(st.integers(-(1 << 63), (1 << 63) - 1),
                                   min_size=n, max_size=n))
            columns.append(np.asarray(column, dtype=np.int64))
        elif kind == "object":
            column = draw(st.lists(st.integers(-_BIG, _BIG),
                                   min_size=n, max_size=n))
            columns.append(np.asarray(column + [None], dtype=object)[:n])
        else:
            column = draw(st.lists(_ANY, min_size=n, max_size=n))
            columns.append(column)
        values.append(column)
    coordinates = object if big else np.int64
    held = ColumnRows(
        runs,
        np.asarray(lefts + [None], dtype=object)[:n].astype(coordinates),
        np.asarray(rights + [None], dtype=object)[:n].astype(coordinates),
        strands, columns,
    )
    chroms = [chrom for chrom, count in runs for __ in range(count)]
    rows = list(zip(chroms, lefts, rights, strands, *values))
    return rows, held


@given(st.lists(column_samples(), max_size=3))
@settings(max_examples=150, deadline=None)
def test_column_template_digest_equals_the_row_reprs(samples):
    dataset = Dataset("D", RegionSchema(), [
        Sample(sample_id, held) for sample_id, (__, held) in
        enumerate(samples, start=1)
    ], validate=False)
    text = "".join(
        repr((sample_id, *row))
        for sample_id, (rows, __) in enumerate(samples, start=1)
        for row in rows
    )
    expected = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    assert dataset_digest(dataset) == expected


def test_template_digest_spans_chunks_and_repeated_chromosomes():
    n = 5000
    held = ColumnRows(
        [("c%1", 2100), ("chr'2", 800), ("c%1", n - 2900)],
        np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64) + 3,
        ["+"] * n, [np.linspace(-1.0, 1.0, n), ["a%sb"] * n],
    )
    dataset = Dataset("D", RegionSchema(), [Sample(9, held)],
                      validate=False)
    text = "".join(map(repr, Sample(9, held).rows()))
    assert dataset_digest(dataset) == hashlib.blake2b(
        text.encode(), digest_size=16
    ).hexdigest()
