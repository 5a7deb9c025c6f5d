"""LocalCluster: sharded execution over real worker node processes."""

import pytest

from repro.engine.context import ExecutionContext
from repro.federation import LocalCluster
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.engine.dispatch import get_backend
from repro.simulate import CancerScenario

PROGRAM = """
BREAKS_IN_GENES = MAP(breaks AS COUNT) EXPRESSION BREAKPOINTS;
MATERIALIZE BREAKS_IN_GENES;
"""


def scenario_sources() -> dict:
    scenario = CancerScenario.generate(seed=5)
    return {
        "EXPRESSION": scenario.expression,
        "BREAKPOINTS": scenario.breakpoints,
    }


def single_node_run(sources: dict) -> dict:
    backend = get_backend("columnar")
    try:
        return Interpreter(backend, dict(sources)).run_program(
            optimize(compile_program(PROGRAM))
        )
    finally:
        backend.close()


def rows(dataset) -> list:
    return list(dataset.region_rows())


class TestLocalCluster:
    def test_two_node_cluster_matches_single_node(self):
        sources = scenario_sources()
        context = ExecutionContext()
        with LocalCluster(sources, nodes=2, context=context) as cluster:
            outcome = cluster.run(PROGRAM)
        baseline = single_node_run(sources)
        assert outcome.strategy == "sharded"
        assert outcome.degraded is False
        merged = outcome.datasets["BREAKS_IN_GENES"]
        assert rows(merged) == rows(baseline["BREAKS_IN_GENES"])
        assert sorted(merged.metadata_triples()) == sorted(
            baseline["BREAKS_IN_GENES"].metadata_triples()
        )
        # Worker processes stream their partials over the socket pair.
        assert context.metrics.counter("federation.bytes_streamed") > 0
        assert context.metrics.counter("federation.shards_placed") > 0
        # Nodes self-time their kernel runs for the cluster critical path.
        assert len(outcome.node_seconds) == 2
        assert outcome.cluster_seconds() > 0

    def test_shared_store_root_ships_mmap_handles(self, tmp_path):
        sources = scenario_sources()
        context = ExecutionContext()
        with LocalCluster(
            sources, nodes=3, store_root=str(tmp_path), context=context
        ) as cluster:
            outcome = cluster.run(PROGRAM)
        baseline = single_node_run(sources)
        assert rows(outcome.datasets["BREAKS_IN_GENES"]) == rows(
            baseline["BREAKS_IN_GENES"]
        )
        # Co-resident nodes spill partials into the shared store and the
        # client maps them: handle bytes, not streamed chunks.
        assert context.metrics.counter("federation.bytes_mapped") > 0
        assert context.metrics.counter("federation.bytes_streamed") == 0

    def test_more_nodes_than_chromosome_groups(self):
        # Extra nodes hold empty slices and serve as pure compute
        # targets; the run must still complete and stay correct.
        sources = scenario_sources()
        chrom_count = len(
            {c for ds in sources.values() for c in ds.chromosomes()}
        )
        with LocalCluster(sources, nodes=chrom_count + 2) as cluster:
            outcome = cluster.run(PROGRAM)
        baseline = single_node_run(sources)
        assert rows(outcome.datasets["BREAKS_IN_GENES"]) == rows(
            baseline["BREAKS_IN_GENES"]
        )

    def test_close_is_idempotent(self):
        cluster = LocalCluster(scenario_sources(), nodes=2)
        cluster.close()
        cluster.close()

    def test_max_shards_flows_through(self):
        sources = scenario_sources()
        with LocalCluster(sources, nodes=2) as cluster:
            outcome = cluster.run(PROGRAM, max_shards=2)
        baseline = single_node_run(sources)
        assert outcome.degraded is False
        assert rows(outcome.datasets["BREAKS_IN_GENES"]) == rows(
            baseline["BREAKS_IN_GENES"]
        )


class TestTiedChromosomeNamesOverWorkers:
    """``TestTiedChromosomeNames`` of ``test_sharded.py`` over real worker
    processes: ``chr1``/``chr01`` rows interleave by position, so the
    tied names must not be merged as separate per-chromosome runs."""

    PROGRAMS = (
        "X = MAP(n AS COUNT) A B; MATERIALIZE X;",
        "X = JOIN(DLE(100); output: LEFT) A B; MATERIALIZE X;",
        "X = COVER(1, ANY) A; MATERIALIZE X;",
    )

    def test_cluster_runs_match_columnar(self):
        from tests.federation.test_sharded import (
            _tied_names_dataset,
            single_node_run as run_columnar,
        )

        sources = {
            "A": _tied_names_dataset("A", 0),
            "B": _tied_names_dataset("B", 3),
        }
        with LocalCluster(sources, nodes=2) as cluster:
            for program in self.PROGRAMS:
                outcome = cluster.run(program)
                baseline = run_columnar(sources, program)
                assert outcome.strategy == "sharded", program
                assert outcome.degraded is False, program
                assert rows(outcome.datasets["X"]) == rows(baseline["X"]), (
                    program
                )


class TestWorkerProxyFailureMapping:
    def test_dead_worker_maps_to_host_down(self):
        from repro.errors import HostDownError
        from repro.federation import WorkerNodeProxy

        class DeadConnection:
            def send(self, payload):
                raise BrokenPipeError("gone")

            def recv(self):  # pragma: no cover - send raises first
                raise EOFError

            def close(self):
                pass

        proxy = WorkerNodeProxy("w0", DeadConnection())
        with pytest.raises(HostDownError):
            proxy.handle_info("client")
