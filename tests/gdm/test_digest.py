"""The result digest keeps its per-row definition.

``results_digest`` / ``dataset_digest`` hash many rows per update and
build the row tuples without ``GenomicRegion.__iter__``; hashing
streams, so the bytes -- and the digests pinned in ``perf/golden.json``
and compared by every differential test -- must stay exactly those of
the original one-update-per-row definition, re-implemented here.
"""

import hashlib

import pytest

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
