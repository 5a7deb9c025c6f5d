"""Samples born as columns: COVER, MAP and JOIN outputs of the columnar
engine hold their operator's arrays (a ``ColumnRows``) and build region
objects only when ``sample.regions`` is asked for.

What must hold: rows read from the columns are exactly the rows of the
materialised regions and of the naive oracle (``None``, ``-0.0`` and NaN
values included); a pickle is the eager one; concurrent materialisation
yields one list; chromosome walks and digests never materialise; and a
row the ``GenomicRegion`` constructor would reject still raises.
"""

import pickle
import sys
import threading

import pytest

import repro.engine.columnar as columnar
from repro.errors import CoordinateError
from repro.gdm import (
    Dataset,
    FLOAT,
    GenomicRegion,
    Metadata,
    RegionSchema,
    STR,
    Sample,
    results_digest,
)
from repro.gdm.sample import ColumnRows, RegionList
from repro.gmql.lang import execute
from repro.store.columnar import reset_store_counters, store_counters

SCHEMA = RegionSchema.of(("score", FLOAT), ("label", STR))

#: ``chr1``/``chr01`` tie under the natural chromosome order.
CHROMS = ("chr1", "chr01", "chr2", "chr10")
SCORES = (1.5, None, -0.0, float("nan"), 0.0, 3.25, -2.0)
LABELS = ("a", None, "b", "", "c")


def make_source(name: str, offset: int) -> Dataset:
    samples = []
    for sample_id in (1, 2):
        regions = []
        for i in range(48):
            chrom = CHROMS[(i + sample_id) % len(CHROMS)]
            left = offset + 37 * i % 900 + sample_id
            regions.append(GenomicRegion(
                chrom, left, left + 5 + (i * 13) % 60, "+-*"[i % 3],
                (SCORES[(i + offset) % len(SCORES)], LABELS[i % len(LABELS)]),
            ))
        samples.append(Sample(sample_id, regions, Metadata({"s": name})))
    return Dataset(name, SCHEMA, samples, validate=False)


def sources() -> dict:
    return {"A": make_source("A", 0), "B": make_source("B", 11)}


PROGRAMS = {
    "cover": "R = COVER(1, ANY) B;",
    "cover2": "R = COVER(2, ANY) B;",
    "flat": "R = FLAT(1, ANY) B;",
    "summit": "R = SUMMIT(1, ANY) B;",
    "histogram": "R = HISTOGRAM(1, ANY) B;",
    "map_count": "R = MAP(n AS COUNT) A B;",
    "map_pairs": (
        "R = MAP(n AS COUNT, top AS MAX(score), low AS MIN(score),"
        " total AS SUM(score), labels AS BAG(label)) A B;"
    ),
    "join_left": "R = JOIN(DLE(40); output: LEFT) A B;",
    "join_right": "R = JOIN(DLE(40); output: RIGHT) A B;",
    "join_int": "R = JOIN(DLE(40); output: INT) A B;",
    "join_cat": "R = JOIN(MD(2); output: CAT) A B;",
}


def run(name: str, engine: str = "columnar") -> Dataset:
    return execute(PROGRAMS[name] + " MATERIALIZE R;", sources(),
                   engine=engine)["R"]


def reprs(rows) -> list:
    # NaN != NaN, so rows compare by repr -- what the digest hashes.
    return [repr(row) for row in rows]


def lazy_samples(dataset: Dataset) -> list:
    samples = list(dataset)
    assert samples and all(
        isinstance(s.held_rows(), ColumnRows) for s in samples
    )
    return samples


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_equal_materialised_and_naive_rows(name):
    oracle = run(name, engine="naive")
    result = run(name)
    samples = lazy_samples(result)
    lazy = [reprs(s.rows()) for s in samples]
    lengths = [len(s) for s in samples]
    assert sum(lengths) > 0
    for sample in samples:
        assert isinstance(sample.regions, RegionList)
        assert sample.regions is sample.regions
        assert sample.columns() is sample.held_rows()
    assert [reprs(s.rows()) for s in samples] == lazy
    assert [len(s) for s in samples] == lengths
    assert lazy == [reprs(s.rows()) for s in oracle]


def test_values_cover_none_signed_zero_and_nan():
    rows = [row for s in run("map_pairs") for row in s.rows()]
    values = [value for row in rows for value in row[5:]]
    assert None in values
    assert any(isinstance(v, float) and v != v for v in values)
    assert any(repr(v) == "-0.0" for v in values)


@pytest.mark.parametrize("name", ["cover2", "map_pairs", "join_cat"])
def test_pickle_is_the_eager_state(name):
    lazy = run(name)
    eager = run(name)
    for sample in eager:
        assert sample.regions is not None  # materialise
    assert pickle.dumps(lazy) == pickle.dumps(eager)
    revived = pickle.loads(pickle.dumps(run(name)))
    for sample, expected in zip(revived, eager):
        assert isinstance(sample.held_rows(), RegionList)
        assert reprs(sample.rows()) == reprs(expected.rows())
        assert reprs(sample.regions) == reprs(expected.regions)


def test_concurrent_materialisation_yields_one_list():
    (sample, *__) = lazy_samples(run("join_left"))
    reset_store_counters()
    barrier = threading.Barrier(4)
    seen = []

    def touch():
        barrier.wait()
        seen.append(sample.regions)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=touch) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 4
    assert all(regions is seen[0] for regions in seen)
    assert store_counters()["rows_materialised"] == len(sample)


def test_digest_and_summaries_never_materialise():
    reset_store_counters()
    results = {name: run(name) for name in ("cover2", "map_count",
                                             "join_left")}
    assert results_digest(results)
    for dataset in results.values():
        dataset.summary()
        dataset.chromosomes()
    assert store_counters()["rows_materialised"] == 0
    sample = next(iter(results["join_left"]))
    assert len(sample.regions) == len(sample)
    assert store_counters()["rows_materialised"] == len(sample)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_chromosome_walks_equal_the_eager_sample(name):
    result = run(name)
    lazy_samples(result)
    summary, chroms = result.shard_summary(), result.chromosomes()
    runs = [s.chromosome_runs() for s in result]
    assert all(isinstance(s.held_rows(), ColumnRows) for s in result)
    eager = Dataset("R", result.schema, [
        Sample(s.id, list(s.regions), s.meta) for s in result
    ], validate=False)
    assert eager.shard_summary() == summary
    assert eager.chromosomes() == chroms
    assert [s.chromosome_runs() for s in eager] == runs


def test_tied_names_interleave_in_join_output():
    summary = run("join_left").shard_summary()
    assert {"chr1", "chr01"} <= set(summary["chroms"])
    assert summary["clustered"] is False


def test_inverted_join_output_still_raises(monkeypatch):
    def inverted(output, anchor, experiment):
        lefts, rights = anchor
        return rights, lefts

    monkeypatch.setattr(columnar, "join_ends", inverted)
    with pytest.raises(CoordinateError, match="inverted region"):
        run("join_left")
