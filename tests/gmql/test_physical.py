"""Tests for the physical planner: cost annotation and backend routing."""

import pytest

from repro.engine import AutoBackend, ExecutionContext, get_backend
from repro.engine.auto import (
    COLUMNAR_REGION_THRESHOLD,
    PARALLEL_REGION_THRESHOLD,
    choose_backend,
)
from repro.gmql.lang import (
    Interpreter,
    compile_program,
    explain_analyze,
    optimize,
    plan_program,
)
from tests.engine.test_backends import canonical, random_dataset


def summaries(samples=4, regions=1_000):
    return {
        "DATA": {"samples": samples, "regions": regions, "schema": ["score"]}
    }


QUERY = (
    "A = SELECT(cell == 'HeLa') DATA;"
    " R = MAP(n AS COUNT) A DATA;"
    " MATERIALIZE R;"
)


class TestChooseBackend:
    AVAILABLE = ("auto", "columnar", "naive", "parallel")

    def test_scan_is_source(self):
        name, __ = choose_backend("scan", 10**9, self.AVAILABLE)
        assert name == "source"

    def test_small_inputs_stay_naive(self):
        for kind in ("select", "map", "join", "cover"):
            name, __ = choose_backend(kind, 10, self.AVAILABLE)
            assert name == "naive"

    def test_medium_inputs_go_columnar(self):
        name, __ = choose_backend(
            "select", COLUMNAR_REGION_THRESHOLD, self.AVAILABLE
        )
        assert name == "columnar"

    def test_region_heavy_operators_go_parallel_on_large_inputs(self):
        for kind in ("map", "join", "cover", "difference"):
            name, reason = choose_backend(
                kind, PARALLEL_REGION_THRESHOLD, self.AVAILABLE
            )
            assert name == "parallel", kind
            assert kind in reason

    def test_non_partitionable_operators_cap_at_columnar(self):
        name, __ = choose_backend(
            "select", PARALLEL_REGION_THRESHOLD * 10, self.AVAILABLE
        )
        assert name == "columnar"

    def test_degrades_without_parallel(self):
        name, __ = choose_backend(
            "map", PARALLEL_REGION_THRESHOLD, ("naive", "columnar")
        )
        assert name == "columnar"
        name, __ = choose_backend("map", PARALLEL_REGION_THRESHOLD, ("naive",))
        assert name == "naive"


class TestPlanProgram:
    def test_structure_and_estimates(self):
        compiled = optimize(compile_program(QUERY))
        physical = plan_program(compiled, summaries(), engine="auto")
        assert set(physical.outputs) == {"R"}
        root = physical.outputs["R"]
        assert root.kind == "map"
        assert root.estimate is not None and root.estimate.regions > 0
        kinds = {node.kind for node in physical.walk()}
        assert kinds == {"scan", "select", "map"}

    def test_shared_scan_planned_once(self):
        compiled = optimize(compile_program(QUERY))
        physical = plan_program(compiled, summaries(), engine="auto")
        scans = [n for n in physical.walk() if n.kind == "scan"]
        assert len(scans) == 1

    def test_pinned_engine(self):
        compiled = optimize(compile_program(QUERY))
        physical = plan_program(compiled, summaries(), engine="columnar")
        for node in physical.walk():
            expected = "source" if node.kind == "scan" else "columnar"
            assert node.backend == expected

    def test_large_inputs_route_map_join_cover_off_naive(self):
        query = (
            "A = SELECT(replicate == '1') DATA;"
            " M = MAP() A DATA;"
            " C = COVER(2, ANY) DATA;"
            " J = JOIN(DLE(1000); output: LEFT) A DATA;"
            " MATERIALIZE M; MATERIALIZE C; MATERIALIZE J;"
        )
        compiled = optimize(compile_program(query))
        physical = plan_program(
            compiled, summaries(regions=PARALLEL_REGION_THRESHOLD * 4),
            engine="auto",
        )
        chosen = physical.chosen_backends()
        for kind in ("map", "join", "cover"):
            assert chosen[kind] == {"parallel"}, chosen

    def test_small_inputs_stay_naive(self):
        compiled = optimize(compile_program(QUERY))
        physical = plan_program(compiled, summaries(regions=50), engine="auto")
        chosen = physical.chosen_backends()
        assert chosen["map"] == {"naive"}
        assert chosen["select"] == {"naive"}

    def test_explain_shows_backend_and_estimates(self):
        compiled = optimize(compile_program(QUERY))
        physical = plan_program(compiled, summaries(), engine="auto")
        text = physical.explain()
        assert "backend=" in text
        assert "est_rows=" in text
        assert "(shared)" in text  # DATA scanned by both MAP operands


class TestExplainAnalyze:
    def test_results_match_naive_and_actuals_recorded(self):
        data = random_dataset(11)
        results, physical, context = explain_analyze(QUERY, {"DATA": data})
        from repro.gmql.lang import execute

        reference = execute(QUERY, {"DATA": data}, engine="naive")
        assert canonical(results["R"]) == canonical(reference["R"])
        for node in physical.walk():
            assert node.actual_regions is not None
            assert node.actual_seconds is not None
            assert node.executed_backend is not None
        assert context.tracer.total_seconds() > 0

    def test_analyze_text(self):
        data = random_dataset(12)
        __, physical, __ctx = explain_analyze(QUERY, {"DATA": data})
        text = physical.explain(analyze=True)
        assert "backend=" in text
        assert "rows=" in text and "->" in text
        assert "time=" in text and "ms" in text

    def test_forced_engine_matches(self):
        data = random_dataset(13)
        results, physical, __ = explain_analyze(
            QUERY, {"DATA": data}, engine="columnar"
        )
        from repro.gmql.lang import execute

        reference = execute(QUERY, {"DATA": data}, engine="naive")
        assert canonical(results["R"]) == canonical(reference["R"])
        executed = {
            node.executed_backend
            for node in physical.walk()
            if node.kind != "scan"
        }
        assert executed == {"columnar"}


class TestInterpreterPhysical:
    def test_run_program_fills_physical_actuals(self):
        data = random_dataset(21)
        backend = get_backend("naive")
        interpreter = Interpreter(backend, {"DATA": data})
        compiled = optimize(compile_program(QUERY))
        physical = interpreter.plan(compiled)
        results = interpreter.run_physical(physical)
        assert "R" in results
        assert all(
            node.actual_regions is not None for node in physical.walk()
        )
        # per-node stats recorded with the executing backend's name
        assert backend.stats.records
        assert {stat.backend for stat in backend.stats.records} == {"naive"}

    def test_auto_backend_shares_stats_across_delegates(self):
        data = random_dataset(22, n_samples=3, n_regions=30)
        backend = AutoBackend()
        interpreter = Interpreter(
            backend, {"DATA": data}, context=ExecutionContext()
        )
        compiled = optimize(compile_program(QUERY))
        interpreter.run_program(compiled)
        assert backend.stats.operator_calls.get("MAP") == 1
        assert backend.stats.records  # delegate kernels recorded here

    def test_memoisation_preserved(self):
        # The shared SCAN feeds SELECT and MAP; counting scans via the
        # physical plan: only one scan node exists and executes once.
        data = random_dataset(23)
        backend = get_backend("naive")
        interpreter = Interpreter(backend, {"DATA": data})
        compiled = optimize(compile_program(QUERY))
        physical = interpreter.plan(compiled)
        interpreter.run_physical(physical)
        scans = [n for n in physical.walk() if n.kind == "scan"]
        assert len(scans) == 1
        assert scans[0].actual_regions == data.region_count()


def test_planning_leaves_no_cycle_holding_the_sources():
    """Dropping the sources after planning frees them at once: the
    planner's recursive closure must not keep them alive until the
    next full collection (a warm process may not run one for long)."""
    import gc
    import weakref

    class Sources(dict):
        """A sources mapping a weak reference can watch."""

    datasets = Sources(DATA=random_dataset(3))
    held = weakref.ref(datasets)
    compiled = optimize(compile_program(QUERY))
    gc.disable()
    try:
        physical = plan_program(compiled, datasets=datasets, engine="columnar")
        assert physical.outputs
        del datasets
        assert held() is None
    finally:
        gc.enable()
