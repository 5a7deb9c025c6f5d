"""Result cache: plan tokens, LRU behaviour, fingerprints, integration."""

import pytest

from repro.engine.context import ExecutionContext
from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.gmql.lang import compile_program, execute, optimize, plan_program
from repro.store.cache import (
    ResultCache,
    plan_token,
    reset_result_cache,
    result_cache,
)


def region(chrom, left, right):
    return GenomicRegion(chrom, left, right, "*", ())


def make_dataset(name="DATA", shift=0):
    return Dataset(
        name,
        RegionSchema.empty(),
        [
            Sample(
                1,
                [region("chr1", 10 + shift, 60 + shift),
                 region("chr2", 0, 40)],
                Metadata({"cell": "A"}),
            ),
            Sample(
                2,
                [region("chr1", 30, 90)],
                Metadata({"cell": "B"}),
            ),
        ],
        validate=False,
    )


PROGRAM = "OUT = SELECT(cell == 'A') DATA; MATERIALIZE OUT;"


@pytest.fixture(autouse=True)
def isolated_cache():
    reset_result_cache()
    yield
    reset_result_cache()


class TestPlanToken:
    def test_primitives(self):
        assert plan_token(None) == "None"
        assert plan_token(5) == "5"
        assert plan_token("x") == "'x'"

    def test_dict_order_insensitive(self):
        assert plan_token({"a": 1, "b": 2}) == plan_token({"b": 2, "a": 1})

    def test_value_objects(self):
        from repro.gmql.genometric import DistLess

        assert plan_token(DistLess(10)) == plan_token(DistLess(10))
        assert plan_token(DistLess(10)) != plan_token(DistLess(11))


class TestResultCacheLRU:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", "A")
        assert cache.get("a") == "A"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.get("a")            # refresh a
        cache.put("c", "C")       # evicts b
        assert "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", "A")
        assert len(cache) == 0


class TestFingerprints:
    def plan(self, datasets):
        compiled = optimize(compile_program(PROGRAM))
        return plan_program(compiled, engine="naive", datasets=datasets)

    def root(self, datasets):
        return self.plan(datasets).outputs["OUT"]

    def test_stable_across_plannings(self):
        data = make_dataset()
        assert (
            self.root({"DATA": data}).fingerprint
            == self.root({"DATA": data}).fingerprint
        )

    def test_content_equal_datasets_share_fingerprints(self):
        assert (
            self.root({"DATA": make_dataset()}).fingerprint
            == self.root({"DATA": make_dataset()}).fingerprint
        )

    def test_dataset_name_does_not_matter(self):
        renamed = make_dataset().with_name("ELSE")
        assert (
            self.root({"DATA": renamed}).fingerprint
            == self.root({"DATA": make_dataset()}).fingerprint
        )

    def test_content_changes_fingerprint(self):
        assert (
            self.root({"DATA": make_dataset()}).fingerprint
            != self.root({"DATA": make_dataset(shift=1)}).fingerprint
        )

    def test_operator_params_change_fingerprint(self):
        other = "OUT = SELECT(cell == 'B') DATA; MATERIALIZE OUT;"
        compiled = optimize(compile_program(other))
        root = plan_program(
            compiled, engine="naive", datasets={"DATA": make_dataset()}
        ).outputs["OUT"]
        assert root.fingerprint != self.root({"DATA": make_dataset()}).fingerprint

    def test_no_datasets_no_fingerprint(self):
        assert self.root(None).fingerprint is None


class TestCacheIntegration:
    def test_warm_run_hits_and_matches_cold(self):
        data = make_dataset()
        cold_ctx = ExecutionContext(result_cache=True)
        cold = execute(PROGRAM, {"DATA": data}, engine="naive",
                       context=cold_ctx)
        assert cold_ctx.metrics.counter("result_cache.misses") >= 1
        warm_ctx = ExecutionContext(result_cache=True)
        warm = execute(PROGRAM, {"DATA": data}, engine="naive",
                       context=warm_ctx)
        assert warm_ctx.metrics.counter("result_cache.hits") >= 1
        assert (
            list(cold["OUT"].region_rows()) == list(warm["OUT"].region_rows())
        )
        assert cold["OUT"].name == warm["OUT"].name

    def test_cache_disabled_by_default(self):
        data = make_dataset()
        for __ in range(2):
            ctx = ExecutionContext()
            execute(PROGRAM, {"DATA": data}, engine="naive", context=ctx)
            assert ctx.metrics.counter("result_cache.hits") == 0
            assert ctx.metrics.counter("result_cache.misses") == 0
        assert len(result_cache()) == 0

    def test_content_change_misses(self):
        ctx = ExecutionContext(result_cache=True)
        execute(PROGRAM, {"DATA": make_dataset()}, engine="naive", context=ctx)
        ctx2 = ExecutionContext(result_cache=True)
        execute(
            PROGRAM, {"DATA": make_dataset(shift=3)}, engine="naive",
            context=ctx2,
        )
        assert ctx2.metrics.counter("result_cache.hits") == 0

    def test_mutating_a_dataset_invalidates(self):
        data = make_dataset()
        ctx = ExecutionContext(result_cache=True)
        execute(PROGRAM, {"DATA": data}, engine="naive", context=ctx)
        data.add_sample(
            Sample(9, [region("chr1", 0, 5)], Metadata({"cell": "A"}))
        )
        ctx2 = ExecutionContext(result_cache=True)
        results = execute(PROGRAM, {"DATA": data}, engine="naive",
                          context=ctx2)
        assert ctx2.metrics.counter("result_cache.hits") == 0
        # The new sample flows into the fresh result (ids are renumbered
        # by the operator, so count content instead).
        assert len(results["OUT"]) == 2
        assert results["OUT"].region_count() == 3

    def test_analyze_marks_cached_nodes(self):
        from repro.gmql.lang import explain_analyze

        data = make_dataset()
        explain_analyze(
            PROGRAM, {"DATA": data}, engine="naive",
            context=ExecutionContext(result_cache=True),
        )
        __, physical, context = explain_analyze(
            PROGRAM, {"DATA": data}, engine="naive",
            context=ExecutionContext(result_cache=True),
        )
        text = physical.explain(analyze=True)
        assert "backend=cache" in text
        assert "cached" in text
        assert context.metrics.counter("result_cache.hits") >= 1


class TestDiskCache:
    """The second cache level: pickled entries beside the store."""

    def test_put_persists_and_fresh_cache_serves_from_disk(self, tmp_path):
        first = ResultCache(capacity=4, directory=str(tmp_path))
        dataset = make_dataset()
        first.put("fp", dataset)
        assert first.disk_stores == 1
        # A brand-new cache (a fresh process) misses in memory but hits
        # the file -- no recompute.
        second = ResultCache(capacity=4, directory=str(tmp_path))
        loaded = second.get("fp")
        assert loaded is not None
        assert list(loaded.region_rows()) == list(dataset.region_rows())
        assert second.disk_hits == 1
        assert second.hits == 1
        assert second.misses == 0

    def test_disk_hit_enters_memory_lru(self, tmp_path):
        first = ResultCache(capacity=4, directory=str(tmp_path))
        first.put("fp", make_dataset())
        second = ResultCache(capacity=4, directory=str(tmp_path))
        second.get("fp")
        second.get("fp")
        assert second.disk_hits == 1   # second lookup is pure memory
        assert second.hits == 2

    def test_existing_file_never_rewritten(self, tmp_path):
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        cache.put("fp", make_dataset())
        cache.put("fp", make_dataset())
        assert cache.disk_stores == 1  # content-addressed: write once

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        cache.put("fp", make_dataset())
        path = cache._path("fp")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        fresh = ResultCache(capacity=4, directory=str(tmp_path))
        assert fresh.get("fp") is None
        assert fresh.misses == 1

    def test_memory_eviction_keeps_files_clear_removes_them(self, tmp_path):
        import os

        cache = ResultCache(capacity=1, directory=str(tmp_path))
        cache.put("a", make_dataset())
        cache.put("b", make_dataset(shift=5))   # evicts "a" from memory
        assert cache.evictions == 1
        files = [n for n in os.listdir(tmp_path) if n.endswith(".result")]
        assert len(files) == 2                  # the file backs restarts
        cache.clear()
        files = [n for n in os.listdir(tmp_path) if n.endswith(".result")]
        assert files == []

    def test_no_directory_means_no_disk(self):
        cache = ResultCache(capacity=4, directory=None)
        cache.put("fp", make_dataset())
        assert cache.disk_stores == 0
        assert ResultCache(capacity=4, directory=None).get("fp") is None

    def test_directory_defaults_beside_store_root(self, tmp_path):
        from repro.store.persist import set_store_root

        set_store_root(str(tmp_path))
        try:
            cache = ResultCache(capacity=4)
            assert cache.directory == str(tmp_path / "results")
        finally:
            set_store_root(None)

    def test_query_results_survive_a_simulated_restart(self, tmp_path):
        from repro.store.persist import set_store_root

        set_store_root(str(tmp_path), sync=True)
        try:
            # The autouse fixture built the global cache before the root
            # existed; rebuild it so it resolves <root>/results.
            reset_result_cache()
            dataset = make_dataset()
            context = ExecutionContext(result_cache=True)
            cold = execute(PROGRAM, {"DATA": dataset}, engine="columnar",
                           context=context)
            # Simulated restart: fresh global cache, fresh dataset object.
            reset_result_cache()
            context2 = ExecutionContext(result_cache=True)
            warm = execute(PROGRAM, {"DATA": make_dataset()},
                           engine="columnar", context=context2)
            stats = result_cache().stats()
            assert stats["disk_hits"] >= 1
            assert stats["misses"] == 0
            assert list(cold["OUT"].region_rows()) == list(
                warm["OUT"].region_rows()
            )
        finally:
            set_store_root(None)


class TestColumnEntries:
    """Disk entries hold columns: a put builds no region object, and a
    load revives samples born as columns."""

    @staticmethod
    def cover_result():
        from repro.gdm import FLOAT, region as make_region

        source = Dataset(
            "B", RegionSchema.of(("score", FLOAT)),
            [
                Sample(1, [make_region("chr1", 0, 50, "+", 1.5),
                           make_region("chr01", 10, 60, "*", float("nan")),
                           make_region("chr1", 20, 90, "-", -0.0)],
                       Metadata({"cell": "A"})),
                Sample(2, [], Metadata({"cell": "B"})),
            ],
            validate=False,
        )
        return execute("R = COVER(1, ANY) B; MATERIALIZE R;", {"B": source},
                       engine="columnar")["R"]

    def test_put_materialises_no_row(self, tmp_path):
        from repro.gdm.sample import ColumnRows
        from repro.store import store_counters

        dataset = self.cover_result()
        assert all(isinstance(s.held_rows(), ColumnRows) for s in dataset)
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        before = store_counters()["rows_materialised"]
        cache.put("fp", dataset)
        assert cache.disk_stores == 1
        assert store_counters()["rows_materialised"] == before

    def test_fresh_cache_loads_equal_rows_and_digest(self, tmp_path):
        from repro.gdm import results_digest
        from repro.gdm.sample import ColumnRows

        for dataset in (self.cover_result(), make_dataset()):
            directory = tmp_path / dataset.name
            ResultCache(capacity=4, directory=str(directory)).put(
                "fp", dataset
            )
            loaded = ResultCache(capacity=4, directory=str(directory)).get(
                "fp"
            )
            assert all(isinstance(s.held_rows(), ColumnRows) for s in loaded)
            assert list(map(repr, loaded.region_rows())) == list(
                map(repr, dataset.region_rows())
            )
            assert results_digest({"R": loaded}) == results_digest(
                {"R": dataset}
            )
            assert loaded.name == dataset.name
            assert loaded.schema == dataset.schema
            assert loaded.provenance == dataset.provenance
            assert [s.meta for s in loaded] == [s.meta for s in dataset]

    def test_coordinates_beyond_int64_round_trip(self, tmp_path):
        huge = 2**63
        dataset = Dataset("BIG", RegionSchema.empty(), [
            Sample(1, [region("chr1", 5, 9), region("chr1", huge, huge + 3)]),
        ], validate=False)
        ResultCache(capacity=4, directory=str(tmp_path)).put("fp", dataset)
        loaded = ResultCache(capacity=4, directory=str(tmp_path)).get("fp")
        assert list(loaded.region_rows()) == list(dataset.region_rows())
        assert loaded.store().digest() == dataset.store().digest()

    def test_parent_layout_file_misses_and_is_rewritten(self, tmp_path):
        import pickle

        dataset = make_dataset()
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        # The layout before column entries: the dataset object pickled.
        with open(cache._path("fp"), "wb") as handle:
            pickle.dump(dataset, handle, protocol=pickle.HIGHEST_PROTOCOL)
        fresh = ResultCache(capacity=4, directory=str(tmp_path))
        assert fresh.get("fp") is None
        assert fresh.misses == 1
        fresh.put("fp", dataset)
        assert fresh.disk_stores == 1
        loaded = ResultCache(capacity=4, directory=str(tmp_path)).get("fp")
        assert list(loaded.region_rows()) == list(dataset.region_rows())

    @pytest.mark.parametrize("payload", [
        ("repro-result-columns-0", "D"),
        ("repro-result-columns-1",),
        {"name": "D"},
        [1, 2, 3],
    ])
    def test_foreign_pickles_miss_and_never_raise(self, tmp_path, payload):
        import pickle

        cache = ResultCache(capacity=4, directory=str(tmp_path))
        with open(cache._path("fp"), "wb") as handle:
            pickle.dump(payload, handle)
        assert cache.get("fp") is None
        assert cache.misses == 1

    def test_a_value_that_is_not_a_dataset_stays_in_memory_only(
        self, tmp_path
    ):
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        cache.put("fp", "A")
        assert cache.disk_stores == 0
        assert cache.get("fp") == "A"

    def test_ragged_rows_stay_in_memory_only(self, tmp_path):
        schema = RegionSchema.of(("a", "INT"))
        dataset = Dataset("D", schema, [Sample(1, [
            GenomicRegion("chr1", 0, 5, "*", (1,)),
            GenomicRegion("chr1", 7, 9, "*", ()),
        ])], validate=False)
        cache = ResultCache(capacity=4, directory=str(tmp_path))
        cache.put("fp", dataset)
        assert cache.disk_stores == 0
        assert cache.get("fp") is dataset
