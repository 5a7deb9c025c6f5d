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
from repro.gmql.lang.effects import Effects
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


#: Every plan-node kind that runs a kernel (scans and statically
#: empty nodes are not routed by size).
KERNEL_KINDS = (
    "select", "project", "extend", "merge", "group", "order", "union",
    "difference", "cover", "map", "join",
)
FAN_OUT_KINDS = ("join", "cover")
C, T = COLUMNAR_REGION_THRESHOLD, PARALLEL_REGION_THRESHOLD


def routes(kinds, sizes) -> set:
    """The backends ``auto`` picks for every kind at every size."""
    return {
        choose_backend(kind, size)[0] for kind in kinds for size in sizes
    }


class TestChooseBackend:
    """One boundary table: every kind at C-1, C, T-1, T and 10*T, where
    C and T are the columnar and parallel thresholds."""

    def test_scan_is_source(self):
        name, __ = choose_backend("scan", 10**9)
        assert name == "source"

    def test_small_inputs_stay_naive(self):
        assert routes(KERNEL_KINDS, [C - 1]) == {"naive"}

    def test_medium_inputs_go_columnar(self):
        assert routes(KERNEL_KINDS, [C, T - 1]) == {"columnar"}

    def test_region_heavy_operators_go_parallel_on_large_inputs(self):
        assert routes(FAN_OUT_KINDS, [T, 10 * T]) == {"parallel"}

    def test_non_partitionable_operators_cap_at_columnar(self):
        others = [kind for kind in KERNEL_KINDS if kind not in FAN_OUT_KINDS]
        assert routes(others, [T, 10 * T]) == {"columnar"}

    def test_input_bound_below_parallel_threshold_keeps_join_columnar(self):
        name, reason = choose_backend(
            "join", 10 * T, effects=Effects(input_bound=T - 1)
        )
        assert name == "columnar"
        assert "capped by inferred bound" in reason


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
        assert chosen["join"] == {"parallel"}, chosen
        assert chosen["cover"] == {"parallel"}, chosen
        assert chosen["map"] == {"columnar"}, chosen

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
        spans = list(context.tracer.iter_spans())
        for node in physical.walk():
            assert any(node.span is span for span in spans)
            assert node.span.attributes["output_regions"] is not None
            assert node.span.attributes["backend"]
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
            node.span.attributes["backend"]
            for node in physical.walk()
            if node.kind != "scan"
        }
        assert executed == {"columnar"}


def explained_nodes(physical):
    """``(node, annotation)`` in ``explain()`` line order, ``None`` for
    nodes printed as ``(shared)`` (each output restarts the walk)."""
    for root in physical.outputs.values():
        seen: set = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                yield node, None
                continue
            seen.add(id(node))
            yield node, True
            stack.extend(reversed(node.children))


class TestExplainReadsSpans:
    """``explain(analyze=True)`` prints each node's span, nothing else."""

    PROGRAM = (
        "A = SELECT(cell == 'HeLa') DATA;"
        " R = MAP(n AS COUNT) A DATA;"
        " E = SELECT(wat == 'x') DATA;"
        " MATERIALIZE R; MATERIALIZE E;"
    )

    @pytest.fixture(autouse=True)
    def isolated_cache(self):
        from repro.store.cache import reset_result_cache

        reset_result_cache()
        yield
        reset_result_cache()

    def check(self, physical) -> list:
        lines = [
            line.strip() for line in physical.explain(analyze=True).splitlines()
            if not line.startswith("-- ")
        ]
        nodes = list(explained_nodes(physical))
        assert len(lines) == len(nodes)
        checked = []
        for line, (node, first) in zip(lines, nodes):
            if first is None:
                assert line == f"{node.label()} (shared)"
                continue
            label, annotation = line.split("  [", 1)
            assert label == node.label()
            parts = annotation.rstrip("]").split()
            span = node.span
            if span is None:  # skipped under a cache hit
                assert not any(p.startswith("rows=") for p in parts)
                continue
            actual = span.attributes
            assert f"backend={actual['backend']}" in parts
            rows = next(p for p in parts if p.startswith("rows="))
            assert rows.split("->")[1] == str(actual["output_regions"])
            assert f"samples={actual['output_samples']}" in parts
            assert ("cached" in parts) == bool(actual.get("cached"))
            checked.append(actual["backend"])
        return checked

    def run(self, engine="auto"):
        data = random_dataset(31)
        __, physical, context = explain_analyze(
            self.PROGRAM, {"DATA": data}, engine=engine,
            context=ExecutionContext(result_cache=True),
        )
        spans = list(context.tracer.iter_spans())
        for node in physical.walk():
            assert node.span is None or any(node.span is s for s in spans)
        return physical

    def test_kernels_scans_empty_plan_and_shared_scan(self):
        physical = self.run()
        assert "(shared)" in physical.explain(analyze=True)
        backends = self.check(physical)
        assert "empty" in backends and "source" in backends
        (empty,) = [n for n in physical.walk() if n.kind == "empty"]
        assert empty.logical.pruned_by == "GQL107"

    def test_cache_hit(self):
        self.run(engine="columnar")
        physical = self.run(engine="columnar")
        backends = self.check(physical)
        assert "cache" in backends
        assert physical.outputs["R"].cached


class TestExplainShowsTheKernelThatRan:
    """``kernel=`` is read from the span the backend annotated, never
    guessed from the plan."""

    def node_line(self, program, sources, kind, analyze=True) -> str:
        __, physical, __ = explain_analyze(
            program + " MATERIALIZE R;", sources, engine="columnar"
        )
        node = next(n for n in physical.walk() if n.kind == kind)
        (line,) = [
            line for line in physical.explain(analyze=analyze).splitlines()
            if line.strip().startswith(node.label() + "  [")
        ]
        return line

    def test_clean_join_and_map_count_name_their_kernels(self):
        from tests.store.test_region_memo import ragged_sources

        join = self.node_line(
            "R = JOIN(DLE(100); output: CAT) GOOD GOOD;",
            ragged_sources(), "join",
        )
        count = self.node_line(
            "R = MAP(n AS COUNT) GOOD GOOD;", ragged_sources(), "map"
        )
        assert "kernel=join.window" in join
        assert "kernel=map.count" in count

    def test_ragged_join_ran_no_vectorised_kernel(self):
        from tests.store.test_region_memo import ragged_sources

        line = self.node_line(
            "R = JOIN(DLE(100); output: CAT) RAGGED GOOD;",
            ragged_sources(), "join",
        )
        assert "backend=columnar" in line
        assert "kernel=" not in line

    def test_plan_only_explain_names_no_kernel(self):
        from tests.store.test_region_memo import ragged_sources

        line = self.node_line(
            "R = JOIN(DLE(100); output: CAT) GOOD GOOD;",
            ragged_sources(), "join", analyze=False,
        )
        assert "backend=columnar" in line
        assert "kernel=" not in line


class TestInterpreterPhysical:
    def test_run_program_fills_physical_actuals(self):
        data = random_dataset(21)
        backend = get_backend("naive")
        interpreter = Interpreter(backend, {"DATA": data})
        compiled = optimize(compile_program(QUERY))
        physical = interpreter.plan(compiled)
        results = interpreter.run_physical(physical)
        assert "R" in results
        assert all(node.span is not None for node in physical.walk())
        # each node's span names the backend that executed it
        assert {
            node.span.attributes["backend"]
            for node in physical.walk() if node.kind != "scan"
        } == {"naive"}

    def test_auto_backend_shares_stats_across_delegates(self):
        data = random_dataset(22, n_samples=3, n_regions=30)
        backend = AutoBackend()
        interpreter = Interpreter(
            backend, {"DATA": data}, context=ExecutionContext()
        )
        physical = interpreter.plan(optimize(compile_program(QUERY)))
        interpreter.run_physical(physical)
        # one tree across delegates: every kernel node's span names the
        # delegate its plan node was routed to
        kernels = [node for node in physical.walk() if node.kind != "scan"]
        assert [node.kind for node in kernels].count("map") == 1
        for node in kernels:
            assert node.span.attributes["backend"] == node.backend
            assert backend.delegate(node.backend).name == node.backend

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
        assert scans[0].span.attributes["output_regions"] == (
            data.region_count()
        )


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


class TestMetaSelectEstimate:
    """A metadata-only SELECT over a source the planner holds is
    counted, not halved: ``auto`` routes what reads it on its real
    size."""

    @staticmethod
    def plan(query: str, dataset):
        compiled = optimize(compile_program(query, datasets={"DATA": dataset}))
        return plan_program(compiled, datasets={"DATA": dataset},
                            engine="auto")

    @staticmethod
    def node(physical, kind):
        (found,) = [n for n in physical.walk() if n.kind == kind]
        return found

    def test_select_keeping_every_sample_is_its_real_size(self):
        dataset = random_dataset(5, n_samples=4, n_regions=300)
        assert dataset.region_count() == 1_200
        physical = self.plan(
            "A = SELECT(replicate > 0) DATA; C = COVER(2, ANY) A;"
            " MATERIALIZE C;", dataset,
        )
        select = self.node(physical, "select")
        assert (select.estimate.samples, select.estimate.regions) == (4, 1_200)
        cover = self.node(physical, "cover")
        assert cover.input_regions == 1_200 >= C
        assert cover.backend == "columnar"

    def test_select_counts_the_samples_it_keeps(self):
        dataset = random_dataset(5, n_samples=4, n_regions=300)
        physical = self.plan(
            "A = SELECT(replicate <= 2) DATA; MATERIALIZE A;", dataset
        )
        select = self.node(physical, "select")
        assert (select.estimate.samples, select.estimate.regions) == (2, 600)

    @pytest.mark.parametrize("predicate, regions", [
        ("region: score > 1", 600),
        # A region predicate beside the metadata one: both heuristics.
        ("replicate > 0; region: score > 1", 300),
    ])
    def test_region_select_keeps_the_default_selectivity(
        self, predicate, regions
    ):
        dataset = random_dataset(5, n_samples=4, n_regions=300)
        physical = self.plan(
            f"A = SELECT({predicate}) DATA; MATERIALIZE A;", dataset
        )
        assert self.node(physical, "select").estimate.regions == regions
