"""Differential tests for the single-process ``sharded`` backend.

Sharded execution merges chromosome-group partials with the same
``merge_partials`` the federated client uses, so the bar here is strict:
results must be **byte-identical** to the columnar backend (same row
order, same metadata), not merely set-equal.
"""

import random

import pytest

from repro.engine.auto import choose_backend
from repro.engine.context import ExecutionContext
from repro.engine.sharded import ShardedBackend
from repro.gdm import (
    Dataset,
    FLOAT,
    Metadata,
    RegionSchema,
    Sample,
    chromosome_sort_key,
    region,
)
from repro.gmql.lang import execute


def clustered_dataset(seed: int, n_samples: int = 4, n_regions: int = 60) -> Dataset:
    """A randomised dataset whose regions are in genome order.

    Sharding requires chromosome-clustered operands; unsorted regions
    exercise only the delegation path (see ``test_unclustered_input...``).
    """
    rng = random.Random(seed)
    schema = RegionSchema.of(("score", FLOAT))
    samples = []
    for sample_id in range(1, n_samples + 1):
        regions = []
        for __ in range(n_regions):
            chrom = f"chr{rng.randint(1, 4)}"
            left = rng.randint(0, 5000)
            width = rng.randint(1, 400)
            regions.append(
                region(chrom, left, left + width, rng.choice("+-*"),
                       round(rng.random() * 10, 3))
            )
        regions.sort(
            key=lambda r: (chromosome_sort_key(r.chrom), r.left, r.right)
        )
        samples.append(
            Sample(
                sample_id,
                regions,
                Metadata(
                    {
                        "cell": rng.choice(["HeLa", "K562"]),
                        "replicate": sample_id,
                    }
                ),
            )
        )
    return Dataset("DATA", schema, samples)


def unclustered_dataset(seed: int) -> Dataset:
    ds = clustered_dataset(seed)
    samples = []
    for sample in ds:
        regions = list(sample.regions)
        random.Random(seed).shuffle(regions)
        samples.append(Sample(sample.id, regions, sample.meta))
    return Dataset("DATA", ds.schema, samples)


def exact(dataset) -> tuple:
    """Byte-order-sensitive form: row sequence plus sorted metadata."""
    return (
        list(dataset.region_rows()),
        sorted(dataset.metadata_triples()),
    )


QUERIES = [
    pytest.param(
        "R = MAP(n AS COUNT, s AS SUM(score)) DATA DATA; MATERIALIZE R;",
        id="map",
    ),
    pytest.param(
        "A = SELECT(replicate == 1) DATA; B = SELECT(replicate == 2) DATA;"
        " R = JOIN(MD(1); output: LEFT) A B; MATERIALIZE R;",
        id="join-md1",
    ),
    pytest.param(
        "R = COVER(2, ANY) DATA; MATERIALIZE R;",
        id="cover",
    ),
    pytest.param(
        "R = HISTOGRAM(1, ANY) DATA; MATERIALIZE R;",
        id="histogram",
    ),
    pytest.param(
        "A = SELECT(cell == 'HeLa') DATA; B = SELECT(cell == 'K562') DATA;"
        " R = DIFFERENCE() A B; MATERIALIZE R;",
        id="difference",
    ),
    pytest.param(
        "A = SELECT(replicate == 1) DATA; B = SELECT(replicate == 2) DATA;"
        " R = UNION() A B; MATERIALIZE R;",
        id="union",
    ),
]


class TestShardedIdentity:
    @pytest.mark.parametrize("program", QUERIES)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_byte_identical_to_columnar(self, program, seed):
        sources = {"DATA": clustered_dataset(seed)}
        expected = execute(program, dict(sources), engine="columnar")
        actual = execute(program, dict(sources), engine="sharded")
        assert exact(actual["R"]) == exact(expected["R"])

    def test_sharded_path_actually_shards(self):
        context = ExecutionContext()
        execute(
            "R = MAP() DATA DATA; MATERIALIZE R;",
            {"DATA": clustered_dataset(13)},
            engine="sharded",
            context=context,
        )
        assert context.metrics.counter("federation.shards_placed") >= 2

    def test_explicit_group_count_caps_partials(self):
        context = ExecutionContext()
        backend = ShardedBackend(groups=2).bind_context(context)
        try:
            sources = {"DATA": clustered_dataset(14)}
            from repro.gmql.lang import Interpreter, compile_program, optimize

            Interpreter(backend, dict(sources), context=context).run_program(
                optimize(compile_program("R = COVER(1, ANY) DATA; MATERIALIZE R;"))
            )
        finally:
            backend.close()
        assert context.metrics.counter("federation.shards_placed") == 2


class TestDelegation:
    def test_unclustered_input_delegates_and_stays_correct(self):
        context = ExecutionContext()
        sources = {"DATA": unclustered_dataset(21)}
        expected = execute(
            "R = MAP() DATA DATA; MATERIALIZE R;", dict(sources),
            engine="columnar",
        )
        actual = execute(
            "R = MAP() DATA DATA; MATERIALIZE R;", dict(sources),
            engine="sharded", context=context,
        )
        assert exact(actual["R"]) == exact(expected["R"])
        # Merge order would not be reproducible: no shards were placed.
        assert context.metrics.counter("federation.shards_placed") == 0

    def test_cross_chromosome_operators_delegate(self):
        # EXTEND aggregates across chromosomes (fsum-of-fsums != fsum).
        context = ExecutionContext()
        sources = {"DATA": clustered_dataset(22)}
        program = "R = EXTEND(n AS COUNT, s AS SUM(score)) DATA; MATERIALIZE R;"
        expected = execute(program, dict(sources), engine="columnar")
        actual = execute(
            program, dict(sources), engine="sharded", context=context
        )
        assert exact(actual["R"]) == exact(expected["R"])
        assert context.metrics.counter("federation.shards_placed") == 0

    def test_single_group_request_runs_unsharded(self):
        context = ExecutionContext()
        backend = ShardedBackend(groups=1).bind_context(context)
        try:
            from repro.gmql.lang import Interpreter, compile_program, optimize

            Interpreter(
                backend, {"DATA": clustered_dataset(23)}, context=context
            ).run_program(
                optimize(compile_program("R = COVER(1, ANY) DATA; MATERIALIZE R;"))
            )
        finally:
            backend.close()
        assert context.metrics.counter("federation.shards_placed") == 0


def test_auto_never_routes_to_sharded():
    """``sharded`` runs only when asked for by name: no input size makes
    ``auto`` pick it."""
    for kind in ("map", "join", "cover", "difference"):
        for regions in (10, 10_000, 10_000_000):
            name, __ = choose_backend(kind, regions)
            assert name != "sharded"
