"""The column view, blocks and value columns travel with the region list.

What the store derives from a sample's regions is memoised on the
:class:`~repro.gdm.sample.RegionList` itself, so operators that hand a
list through unchanged hand on its blocks, a derived operand costs no
rebuild, and the residency ledger's charges live exactly as long as the
lists that own them.  Everything is read from the list's one column
view, built by a single walk over its region objects.
"""

import gc
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import repro.store.columnar as store_columnar

from repro.engine.context import ExecutionContext
from repro.formats import read_dataset, write_dataset
from repro.gdm import (
    Dataset,
    GenomicRegion,
    RegionList,
    RegionSchema,
    Sample,
    renumber,
    results_digest,
)
from repro.gdm.sample import ColumnRows, region_list_columns
from repro.gmql import operators as ops
from repro.gmql.aggregates import Count
from repro.gmql.lang import execute
from repro.simulate import EncodeRepository, GenomeLayout
from repro.store import (
    DatasetStore,
    region_column,
    region_memo,
    reset_store_counters,
    store_counters,
)
from repro.store.persist import (
    ResidencyLedger,
    reset_residency_ledger,
    set_store_root,
)

PROMS = "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
DERIVED_MAP_COUNT = (
    PROMS
    + "PEAKS = SELECT(format == 'BED') ENCODE;\n"
    + "R = MAP(n AS COUNT) PROMS PEAKS;\nMATERIALIZE R;\n"
)


def unique_program(index: int) -> str:
    """A region SELECT behind the MAP: fresh region lists every time."""
    return (
        PROMS
        + f"PEAKS = SELECT(region: p_value < {1e-3 * (1 + index)}) ENCODE;\n"
        + "R = MAP(n AS COUNT, m AS AVG(p_value)) PROMS PEAKS;\n"
        + "MATERIALIZE R;\n"
    )


def make_sources(seed: int = 7) -> dict:
    layout = GenomeLayout.generate(seed=seed, n_genes=60, n_enhancers=20)
    repo = EncodeRepository.generate(
        seed=seed, n_samples=4, peaks_per_sample_mean=300, layout=layout
    )
    return {"ANNOTATIONS": repo.annotations, "ENCODE": repo.encode}


def run(program: str, sources: dict, engine: str = "columnar") -> str:
    results = execute(
        program, sources, engine=engine,
        context=ExecutionContext(result_cache=False),
    )
    return results_digest(results)


@pytest.fixture(autouse=True)
def isolated_store_state():
    set_store_root(None)
    reset_residency_ledger(None)
    yield
    set_store_root(None)
    reset_residency_ledger(None)


class TestSharing:
    def test_sample_keeps_a_region_list_and_copies_anything_else(self):
        plain = [r for r in next(iter(make_sources()["ENCODE"])).regions]
        sample = Sample(1, plain)
        assert isinstance(sample.regions, RegionList)
        assert sample.regions is not plain
        assert Sample(2, sample.regions).regions is sample.regions

    def test_pass_through_operators_hand_on_the_same_list(self):
        encode = make_sources()["ENCODE"]
        source = {sample.id: sample.regions for sample in encode}
        ordered = list(source.values())

        def lists(dataset):
            return [sample.regions for sample in dataset]

        def same(dataset, expected=ordered):
            return all(a is b for a, b in zip(lists(dataset), expected))

        assert same(ops.select(encode, meta_predicate=lambda m: True))
        assert same(ops.extend(encode, {"n": (Count(), None)}))
        by_cell = ops.order(encode, meta_keys=[("cell", "ASC")])
        assert {id(r) for r in lists(by_cell)} == {id(r) for r in ordered}
        assert same(encode.with_name("OTHER"))
        assert same(encode.with_samples(list(encode)))
        assert same(encode.with_samples(list(encode), validate=True))
        assert all(
            a.regions is b.regions
            for a, b in zip(renumber(list(encode), start=10), encode)
        )
        # Ordering regions (or cutting them) makes a new list.
        by_left = ops.order(encode, region_keys=[("left", "ASC")])
        assert not any(a is b for a, b in zip(lists(by_left), ordered))

    def test_derived_dataset_shares_blocks_and_columns(self):
        encode = make_sources()["ENCODE"]
        sample = next(iter(encode))
        blocks = encode.store().blocks(sample)
        column = region_column(sample.regions, 1)
        derived = ops.select(encode, meta_predicate=lambda m: True)
        twin = next(iter(derived))
        reset_store_counters()
        assert derived.store().blocks(twin) is blocks
        assert region_column(twin.regions, 1) is column
        assert store_counters()["blocks_built"] == 0

    def test_one_warm_derived_map_count_builds_no_blocks(self):
        sources = make_sources()
        expected = run(DERIVED_MAP_COUNT, sources)
        reset_store_counters()
        assert run(DERIVED_MAP_COUNT, sources) == expected
        assert store_counters()["blocks_built"] == 0

    def test_blocks_built_from_columns_survive_materialisation(self, tmp_path):
        write_dataset(make_sources()["ENCODE"], str(tmp_path / "ENCODE"))
        encode = read_dataset(str(tmp_path / "ENCODE"), "ENCODE")
        sample = next(iter(encode))
        rows = sample.held_rows()
        assert isinstance(rows, ColumnRows)
        reset_store_counters()
        blocks = encode.store().blocks(sample)
        assert region_memo(rows).blocks[encode.store().bin_size] is blocks
        assert store_counters()["rows_materialised"] == 0
        # The list the columns build adopts their memo, so every later
        # request -- through the list or a fresh store -- is served.
        regions = sample.regions
        assert region_memo(regions) is region_memo(rows)
        assert ops.select(encode, meta_predicate=lambda m: True).store(
        ).blocks(sample) is blocks
        assert store_counters()["blocks_built"] == 1

    def test_cover_output_blocks_are_built_from_its_columns(self):
        sources = make_sources()
        program = "C = COVER(1, ANY) ENCODE;\nR = COVER(2, ANY) C;\n" \
            "MATERIALIZE R;\n"
        expected = run(program, sources, engine="naive")
        reset_store_counters()
        assert run(program, sources) == expected
        # The second COVER reads the first one's blocks, built from its
        # columns: no region object of either output is ever made.
        counters = store_counters()
        assert counters["blocks_built"] == len(sources["ENCODE"]) + 1
        assert counters["rows_materialised"] == 0

    def test_a_plain_list_works_but_memoises_nothing(self):
        sample = next(iter(make_sources()["ENCODE"]))
        plain = list(sample.regions)
        assert region_memo(plain) is None
        first = region_column(plain, "left")
        assert first.values == [r.left for r in sample.regions]
        assert region_column(plain, "left") is not first


class TestOneColumnView:
    def test_a_region_list_has_one_memoised_view(self):
        sample = next(iter(make_sources()["ENCODE"]))
        view = sample.columns()
        assert isinstance(view, ColumnRows)
        assert sample.columns() is view
        assert sample.with_id(9).columns() is view
        assert region_memo(sample.regions).view is view
        assert [tuple(row) for row in view.rows(sample.id)] == list(
            sample.rows()
        )

    def test_digest_blocks_and_map_avg_walk_each_list_once(
        self, monkeypatch
    ):
        walked = []

        def counting(regions):
            walked.append(id(regions))
            return region_list_columns(regions)

        monkeypatch.setattr(store_columnar, "region_list_columns", counting)
        sources = make_sources()
        encode = sources["ENCODE"]
        encode.store().digest()
        for sample in encode:
            encode.store().blocks(sample)
        run(
            PROMS + "R = MAP(m AS AVG(p_value)) PROMS ENCODE;\n"
            "MATERIALIZE R;\n",
            sources,
        )
        assert walked
        assert set(Counter(walked).values()) == {1}
        assert {id(sample.regions) for sample in encode} <= set(walked)

    def test_a_region_list_and_its_column_born_copy_are_the_same_rows(
        self, tmp_path
    ):
        sources = make_sources()
        encode = sources["ENCODE"]
        write_dataset(encode, str(tmp_path / "ENCODE"))
        copy = read_dataset(str(tmp_path / "ENCODE"), "ENCODE")
        assert all(isinstance(s.held_rows(), RegionList) for s in encode)
        assert all(isinstance(s.held_rows(), ColumnRows) for s in copy)
        assert copy.store().digest() == encode.store().digest()
        for ours, theirs in zip(encode, copy):
            a, b = encode.store().blocks(ours), copy.store().blocks(theirs)
            assert list(a.chroms) == list(b.chroms)
            for chrom, block in a.chroms.items():
                other = b.chroms[chrom]
                for name in ("starts", "stops", "strands", "index"):
                    assert np.array_equal(
                        getattr(block, name), getattr(other, name)
                    )
                assert np.array_equal(
                    a.zone_map.entry(chrom).bins,
                    b.zone_map.entry(chrom).bins,
                )
        assert results_digest({"E": copy}) == results_digest({"E": encode})
        assert run(unique_program(2), {**sources, "ENCODE": copy}) == run(
            unique_program(2), sources
        )


RAGGED_PROGRAMS = {
    "select": "R = SELECT(region: score > 0) RAGGED;",
    "map": "R = MAP(n AS COUNT, top AS MAX(score)) GOOD RAGGED;",
    "join": "R = JOIN(DLE(100); output: CAT) RAGGED GOOD;",
}


def ragged_sources() -> dict:
    schema = RegionSchema.of(("score", "INT"), ("name", "STR"))
    good = Dataset("GOOD", schema, [Sample(1, [
        GenomicRegion("chr1", 10 * i, 10 * i + 15, "+", (i, f"g{i}"))
        for i in range(8)
    ])])
    ragged = Dataset("RAGGED", schema, [
        Sample(1, [GenomicRegion("chr1", 5, 30, "*", (2, "a")),
                   GenomicRegion("chr1", 40, 45, "-", (3, "c", 9))]),
        Sample(2, [GenomicRegion("chr1", 0, 100, "*", (1, "b"))]),
    ], validate=False)
    return {"GOOD": good, "RAGGED": ragged}


@pytest.mark.parametrize("name", sorted(RAGGED_PROGRAMS))
def test_an_operand_with_ragged_rows_runs_on_the_naive_kernels(name):
    program = RAGGED_PROGRAMS[name] + " MATERIALIZE R;"
    sources = ragged_sources()
    assert next(iter(sources["RAGGED"])).columns() is None
    got = execute(program, sources, engine="columnar")["R"]
    expected = execute(program, ragged_sources(), engine="naive")["R"]
    assert len(got) == len(expected) > 0
    assert [repr(row) for row in got.region_rows()] == [
        repr(row) for row in expected.region_rows()
    ]
    assert not any(
        record.parameters.startswith("columnar")
        for record in got.provenance
    )


class TestPickling:
    def test_sample_and_dataset_round_trips_carry_no_memo(self):
        sources = make_sources()
        encode = sources["ENCODE"]
        before = len(pickle.dumps(encode))
        run(unique_program(0), sources)  # blocks and columns memoised
        assert all(region_memo(s.regions).blocks for s in encode)
        assert len(pickle.dumps(encode)) == before
        revived = pickle.loads(pickle.dumps(encode))
        for sample in revived:
            assert isinstance(sample.regions, RegionList)
            assert sample.regions.memo is None
        sample = next(iter(encode))
        copy = pickle.loads(pickle.dumps(sample))
        assert copy.regions.memo is None
        assert list(copy.regions) == list(sample.regions)


class TestResidencyLedger:
    def test_fifty_derived_queries_leave_the_ledger_where_the_first_left_it(
        self,
    ):
        ledger = reset_residency_ledger(None)
        sources = make_sources()
        expected = run(DERIVED_MAP_COUNT, sources)
        charges, charged = len(ledger), ledger.resident_bytes()
        assert charges > 0
        for __ in range(49):
            assert run(DERIVED_MAP_COUNT, sources) == expected
        assert (len(ledger), ledger.resident_bytes()) == (charges, charged)

    def test_a_dropped_derived_result_is_discharged_without_a_collection(
        self,
    ):
        ledger = reset_residency_ledger(None)
        sources = make_sources()
        run(DERIVED_MAP_COUNT, sources)
        baseline = (len(ledger), ledger.resident_bytes())
        gc.disable()
        try:
            # The region SELECT's lists build (and charge) their own
            # blocks; they die with the query, reference counting alone.
            run(unique_program(1), sources)
            assert (len(ledger), ledger.resident_bytes()) == baseline
        finally:
            gc.enable()

    def test_dead_owners_never_count_or_alias(self):
        ledger = ResidencyLedger(budget_bytes=250)

        class Owner:
            def __init__(self):
                self.evicted = []

            def _evict_resident(self, key):
                self.evicted.append(key)

        live = Owner()
        ledger.charge(live, "a", 100)
        for __ in range(10):
            dead = Owner()  # likely reuses the previous dead one's id
            ledger.charge(dead, "a", 100)
            del dead
        ledger.charge(live, "b", 100)
        assert live.evicted == []
        assert ledger.evictions == 0
        assert (len(ledger), ledger.resident_bytes()) == (2, 200)

    def test_concurrent_charges_keep_the_books_straight(self):
        """Four threads charging, touching and dropping owners under a
        budget, with thread switches forced as often as possible."""
        ledger = ResidencyLedger(budget_bytes=1000)

        class Owner:
            def _evict_resident(self, key):
                pass

        kept = [Owner() for __ in range(4)]
        errors: list = []
        start = threading.Barrier(4, timeout=30)

        def worker(slot: int) -> None:
            try:
                start.wait()
                for turn in range(3000):
                    ledger.charge(kept[slot], turn % 3, 100)
                    transient = Owner()
                    ledger.charge(transient, 0, 100)
                    ledger.touch(kept[(slot + 1) % 4], turn % 3)
                    del transient
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert ledger.resident_bytes() == sum(ledger._entries.values())
        assert ledger.resident_bytes() <= 1000

    def test_serve_mix_shaped_threads_under_a_small_budget(self):
        """Two clients, hot derived programs and unique region SELECTs,
        one small budget: no exception, every digest right, and the
        sources' blocks are never evicted by bytes of dead queries."""
        sources = make_sources()
        expected_hot = run(DERIVED_MAP_COUNT, sources, engine="naive")
        expected_unique = {
            index: run(unique_program(index), sources, engine="naive")
            for index in range(6)
        }
        # Size the budget from an identical throwaway copy: the sources'
        # blocks plus room for one unique query's blocks per client.
        probe = reset_residency_ledger(None)
        probe_sources = make_sources()
        run(DERIVED_MAP_COUNT, probe_sources)
        resident = probe.resident_bytes()
        run(unique_program(0), probe_sources)
        del probe_sources
        budget = 3 * resident

        ledger = reset_residency_ledger(budget)
        assert run(DERIVED_MAP_COUNT, sources) == expected_hot
        encode_blocks = [
            region_memo(sample.regions).blocks
            for sample in sources["ENCODE"]
        ]
        kept = [dict(blocks) for blocks in encode_blocks]
        errors: list = []
        start = threading.Barrier(2, timeout=30)

        def client(slot: int) -> None:
            try:
                start.wait()
                for turn in range(24):
                    if turn % 2:
                        index = (slot + turn) % len(expected_unique)
                        got = run(unique_program(index), sources)
                        assert got == expected_unique[index], index
                    else:
                        assert run(DERIVED_MAP_COUNT, sources) == expected_hot
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert ledger.evictions == 0
        assert ledger.resident_bytes() <= budget
        for blocks, before in zip(encode_blocks, kept):
            assert all(blocks[key] is value for key, value in before.items())

    def test_store_counts_evictions_of_its_samples_blocks(self):
        sources = make_sources()
        encode = sources["ENCODE"]
        store = DatasetStore(encode, None, root=None)
        samples = list(encode)
        one = store.blocks(samples[0]).nbytes()
        ledger = reset_residency_ledger(one)
        for sample in samples:
            region_memo(sample.regions).blocks.clear()
        evicted = store_counters()["blocks_evicted"]
        store.blocks(samples[0])
        store.blocks(samples[1])
        assert ledger.evictions == 1
        assert store_counters()["blocks_evicted"] - evicted == 1


class TestProcessCounters:
    def test_concurrent_builds_lose_no_process_count(self):
        """Four threads each building the blocks of fresh datasets, with
        thread switches forced as often as possible: the process-wide
        ``blocks_built`` counts every build."""
        threads_n, datasets_per_thread, samples_per_dataset = 4, 150, 2
        errors: list = []
        start = threading.Barrier(threads_n, timeout=30)

        def fresh_dataset(turn: int) -> Dataset:
            return Dataset("FRESH", RegionSchema.empty(), [
                Sample(sample_id, [
                    GenomicRegion("chr1", turn + i, turn + i + 5)
                    for i in range(3)
                ])
                for sample_id in range(1, samples_per_dataset + 1)
            ])

        def worker() -> None:
            try:
                start.wait()
                for turn in range(datasets_per_thread):
                    dataset = fresh_dataset(turn)
                    store = DatasetStore(dataset, None, root=None)
                    for sample in dataset:
                        store.blocks(sample)
            except BaseException as exc:  # reported below
                errors.append(exc)

        reset_store_counters()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker) for __ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store_counters()["blocks_built"] == (
            threads_n * datasets_per_thread * samples_per_dataset
        )
