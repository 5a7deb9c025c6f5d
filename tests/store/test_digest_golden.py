"""Golden digest pin: the store's content address must never drift.

``DatasetStore.digest()`` keys everything durable: persisted store
directories (``<digest>-b<bin>``), result-cache fingerprints, and staged
spill files.  An accidental change to the digest recipe would silently
orphan every existing store directory and cached result -- queries would
still be *correct*, but every warm path would go cold with no error
anywhere.  This test pins the digest of the committed example dataset so
any recipe change has to be made consciously (bump the prefix, update
the golden value here, and accept that on-disk stores rebuild).
"""

from pathlib import Path

from repro.formats import read_dataset, write_dataset
from repro.gdm import (
    FLOAT,
    STR,
    Dataset,
    GenomicRegion,
    Metadata,
    RegionSchema,
    Sample,
)
from repro.store import columnar

EXAMPLE = str(
    Path(__file__).resolve().parents[2] / "examples" / "data" / "CHIP"
)

#: blake2b-128 of the committed CHIP example under digest recipe v3
#: (typed column encoding; v2 hashed per-region formatted strings).
GOLDEN_DIGEST = "5b9064b2fe739ccf8e1aa513b2c20099"


def test_example_dataset_digest_is_pinned():
    dataset = read_dataset(EXAMPLE)
    assert dataset.store().digest() == GOLDEN_DIGEST


def test_digest_ignores_bin_size_and_dataset_name():
    dataset = read_dataset(EXAMPLE)
    assert dataset.store(64).digest() == GOLDEN_DIGEST
    renamed = Dataset(
        "SOMETHING_ELSE",
        dataset.schema,
        list(dataset),
        validate=False,
    )
    assert renamed.store().digest() == GOLDEN_DIGEST


def test_digest_changes_with_content():
    dataset = read_dataset(EXAMPLE)
    samples = list(dataset)
    truncated = Dataset(
        dataset.name, dataset.schema, samples[:-1], validate=False
    )
    assert truncated.store().digest() != GOLDEN_DIGEST


#: The digest of :func:`long_strings`, whose STR values are as long as
#: the store's table of length texts and longer: they take the ``str``
#: fallback, which must write the same bytes.
LONG_STRINGS_DIGEST = "dc811c6f2d11f516f1f6b67f61187721"


def long_strings() -> Dataset:
    table = len(columnar._LENGTH_TEXT)
    schema = RegionSchema.of(("name", STR), ("score", FLOAT))
    return Dataset("LONG", schema, [
        Sample(1, [GenomicRegion("chr1", 0, 10, "+", ("x" * (table - 1), 1.5)),
                   GenomicRegion("chr1", 5, 20, "-", ("y" * table, 2.5)),
                   GenomicRegion("chr2", 1, 3, "*", ("é" * 1000, 0.0))],
               Metadata({"n": 1})),
        Sample(2, [GenomicRegion("chr1", 7, 9, "+", ("z", -1.0))]),
    ])


def test_strings_past_the_length_table_digest_is_pinned(tmp_path):
    dataset = long_strings()
    assert len(columnar._LENGTH_TEXT) == 256
    assert dataset.store().digest() == LONG_STRINGS_DIGEST
    write_dataset(dataset, str(tmp_path / "LONG"))
    assert read_dataset(str(tmp_path / "LONG")).store().digest() == (
        LONG_STRINGS_DIGEST
    )
