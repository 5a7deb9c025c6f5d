"""Differential tests: every backend must agree with the naive reference.

The naive backend is the semantics oracle; columnar and parallel are run
on the same queries over randomised datasets and compared region-by-region
and metadata-by-metadata.
"""

import random

import pytest

from repro.engine import available_backends, get_backend
from repro.errors import EngineError
from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region
from repro.gmql.lang import execute


def random_dataset(seed: int, n_samples: int = 4, n_regions: int = 60) -> Dataset:
    rng = random.Random(seed)
    schema = RegionSchema.of(("score", FLOAT))
    samples = []
    for sample_id in range(1, n_samples + 1):
        regions = []
        for __ in range(n_regions):
            chrom = f"chr{rng.randint(1, 3)}"
            left = rng.randint(0, 5000)
            width = rng.randint(1, 400)
            regions.append(
                region(chrom, left, left + width, rng.choice("+-*"),
                       round(rng.random() * 10, 3))
            )
        samples.append(
            Sample(
                sample_id,
                regions,
                Metadata(
                    {
                        "cell": rng.choice(["HeLa", "K562", "GM12878"]),
                        "dataType": rng.choice(["ChipSeq", "RnaSeq"]),
                        "replicate": sample_id,
                    }
                ),
            )
        )
    return Dataset("DATA", schema, samples)


def canonical(dataset) -> list:
    """Order-insensitive canonical form of a dataset for comparison."""
    out = []
    for sample in dataset:
        rows = sorted(
            (r.chrom, r.left, r.right, r.strand, r.values) for r in sample.regions
        )
        out.append((tuple(sorted(sample.meta)), tuple(rows)))
    out.sort()
    return out


QUERIES = [
    pytest.param(
        "R = SELECT(dataType == 'ChipSeq'; region: score > 5) DATA;"
        " MATERIALIZE R;",
        id="select",
    ),
    pytest.param(
        "R = MAP() DATA DATA; MATERIALIZE R;",
        id="map-count-self",
    ),
    pytest.param(
        "A = SELECT(cell == 'HeLa') DATA; R = MAP(n AS COUNT) A DATA;"
        " MATERIALIZE R;",
        id="map-after-select",
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
        "R = SUMMIT(1, ANY) DATA; MATERIALIZE R;",
        id="summit",
    ),
    pytest.param(
        "R = FLAT(2, ANY) DATA; MATERIALIZE R;",
        id="flat",
    ),
    pytest.param(
        "A = SELECT(cell == 'HeLa') DATA; B = SELECT(cell == 'K562') DATA;"
        " R = DIFFERENCE() A B; MATERIALIZE R;",
        id="difference",
    ),
    pytest.param(
        "A = SELECT(replicate == 1) DATA; B = SELECT(replicate == 2) DATA;"
        " R = JOIN(DLE(500); output: LEFT) A B; MATERIALIZE R;",
        id="join-dle",
    ),
    pytest.param(
        "A = SELECT(replicate == 1) DATA; B = SELECT(replicate == 2) DATA;"
        " R = JOIN(MD(2), DLE(2000); output: CAT) A B; MATERIALIZE R;",
        id="join-md",
    ),
]


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "naive" in names
        assert "columnar" in names
        assert "parallel" in names
        assert "auto" in names

    def test_unknown_backend(self):
        with pytest.raises(EngineError):
            get_backend("spark")


class TestDifferential:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_columnar_matches_naive(self, query, seed):
        data = random_dataset(seed)
        reference = execute(query, {"DATA": data}, engine="naive")
        candidate = execute(query, {"DATA": data}, engine="columnar")
        for name in reference:
            assert canonical(candidate[name]) == canonical(reference[name])

    @pytest.mark.parametrize(
        "query",
        [
            QUERIES[1],  # map
            QUERIES[3],  # cover
            QUERIES[7],  # difference
            QUERIES[8],  # join-dle
        ],
    )
    def test_parallel_matches_naive(self, query):
        data = random_dataset(99, n_samples=3, n_regions=40)
        reference = execute(query, {"DATA": data}, engine="naive")
        candidate = execute(query, {"DATA": data}, engine="parallel")
        for name in reference:
            assert canonical(candidate[name]) == canonical(reference[name])


class TestDifferentialProperty:
    """Property-based differential suite: on randomized datasets, every
    backend (including ``auto``'s per-node routing) and the optimized and
    unoptimized plans must all produce the naive reference's results."""

    PROPERTY_QUERIES = [
        "R = SELECT(dataType == 'ChipSeq'; region: score > 2) DATA;"
        " MATERIALIZE R;",
        "A = SELECT(cell == 'HeLa') DATA; R = MAP(n AS COUNT) A DATA;"
        " MATERIALIZE R;",
        "R = COVER(2, ANY) DATA; MATERIALIZE R;",
        "A = SELECT(replicate == 1) DATA; B = SELECT(replicate == 2) DATA;"
        " R = JOIN(DLE(800); output: LEFT) A B; MATERIALIZE R;",
        "A = SELECT(cell == 'HeLa') DATA; B = SELECT(cell == 'K562') DATA;"
        " R = DIFFERENCE() A B; MATERIALIZE R;",
    ]

    @staticmethod
    def _check_all_agree(seed, n_samples, n_regions, query):
        data = random_dataset(seed, n_samples=n_samples, n_regions=n_regions)
        reference = execute(query, {"DATA": data}, engine="naive")
        expected = {
            name: canonical(dataset) for name, dataset in reference.items()
        }
        unoptimized = execute(
            query, {"DATA": data}, engine="naive", optimized=False
        )
        for name in expected:
            assert canonical(unoptimized[name]) == expected[name]
        for engine in ("columnar", "auto"):
            candidate = execute(query, {"DATA": data}, engine=engine)
            for name in expected:
                assert canonical(candidate[name]) == expected[name], (
                    engine, name,
                )

    try:
        from hypothesis import given, settings, strategies as st

        @staticmethod
        @given(
            seed=st.integers(min_value=0, max_value=2**16),
            n_samples=st.integers(min_value=2, max_value=5),
            n_regions=st.integers(min_value=5, max_value=60),
            query=st.sampled_from(PROPERTY_QUERIES),
        )
        @settings(max_examples=12, deadline=None)
        def test_backends_agree(seed, n_samples, n_regions, query):
            TestDifferentialProperty._check_all_agree(
                seed, n_samples, n_regions, query
            )
    except ImportError:  # pragma: no cover - hypothesis ships with the image
        @staticmethod
        @pytest.mark.parametrize("seed", [0, 13, 21_001])
        @pytest.mark.parametrize("query", PROPERTY_QUERIES)
        def test_backends_agree(seed, query):
            TestDifferentialProperty._check_all_agree(seed, 4, 40, query)

    def test_parallel_agrees(self):
        # One process-pool run (kept out of the property loop: worker
        # startup dominates and the kernels are shared across examples).
        query = self.PROPERTY_QUERIES[1]
        data = random_dataset(4242, n_samples=3, n_regions=40)
        reference = execute(query, {"DATA": data}, engine="naive")
        candidate = execute(query, {"DATA": data}, engine="parallel")
        for name in reference:
            assert canonical(candidate[name]) == canonical(reference[name])


class TestParallelWorkersConfig:
    def test_constructor_argument(self):
        from repro.engine.parallel import ParallelBackend

        backend = ParallelBackend(max_workers=3)
        assert backend.max_workers == 3

    def test_context_workers_apply_before_pool_creation(self):
        from repro.engine import ExecutionContext
        from repro.engine.parallel import ParallelBackend

        backend = ParallelBackend()
        backend.bind_context(ExecutionContext(workers=3))
        assert backend.max_workers == 3
        # ...but an explicitly configured backend keeps its setting.
        pinned = ParallelBackend(max_workers=2)
        pinned.bind_context(ExecutionContext(workers=6))
        assert pinned.max_workers == 2

    def test_pool_reused_across_kernels(self):
        from repro.engine.parallel import ParallelBackend
        from repro.gmql.lang import compile_program, Interpreter

        backend = ParallelBackend(max_workers=2)
        try:
            data = random_dataset(77, n_samples=2, n_regions=20)
            program = compile_program(
                "R = MAP() DATA DATA; MATERIALIZE R;"
            )
            Interpreter(backend, {"DATA": data}).run_program(program)
            first_pool = backend._pool
            assert first_pool is not None
            Interpreter(backend, {"DATA": data}).run_program(
                compile_program("R = COVER(1, ANY) DATA; MATERIALIZE R;")
            )
            assert backend._pool is first_pool
        finally:
            backend.close()


def node_spans(physical) -> list:
    """``(KIND, span)`` for every plan node of a run that ran a kernel."""
    return [
        (node.kind.upper(), node.span)
        for node in physical.walk()
        if node.span.attributes["backend"] not in ("source", "empty", "cache")
    ]


class TestEngineStats:
    """What a run records about itself: one span per plan node."""

    def test_stats_recorded(self):
        from repro.gmql.lang import compile_program, Interpreter

        data = random_dataset(3)
        interpreter = Interpreter(get_backend("naive"), {"DATA": data})
        physical = interpreter.plan(
            compile_program("R = MAP() DATA DATA; MATERIALIZE R;")
        )
        interpreter.run_physical(physical)
        spans = node_spans(physical)
        assert [kind for kind, __ in spans] == ["MAP"]
        assert sum(span.self_seconds() for __, span in spans) > 0
        assert spans[0][1].attributes["output_samples"] > 0

    def test_reset(self):
        """A backend keeps no record: each run's starts empty on its
        own context."""
        from repro.engine.context import ExecutionContext
        from repro.gmql.lang import compile_program, Interpreter

        backend = get_backend("naive")
        compiled = compile_program("R = MAP() DATA DATA; MATERIALIZE R;")
        contexts = [ExecutionContext(), ExecutionContext()]
        for context in contexts:
            assert context.tracer.total_seconds() == 0
            Interpreter(
                backend, {"DATA": random_dataset(3)}, context=context
            ).run_program(compiled)
        assert [len(list(c.tracer.iter_spans())) for c in contexts] == [2, 2]
        assert not hasattr(backend, "stats")

    def test_per_node_records(self):
        from repro.gmql.lang import compile_program, Interpreter

        data = random_dataset(3)
        interpreter = Interpreter(get_backend("naive"), {"DATA": data})
        physical = interpreter.plan(compile_program(
            "A = SELECT(cell == 'HeLa') DATA; R = MAP() A DATA;"
            " MATERIALIZE R;"
        ))
        interpreter.run_physical(physical)
        spans = node_spans(physical)
        assert [kind for kind, __ in spans] == ["SELECT", "MAP"]
        for kind, span in spans:
            assert span.attributes["backend"] == "naive"
            assert span.label.startswith(kind)  # the plan-node label
            assert 0 <= span.self_seconds() <= span.seconds


class TestCustomBackend:
    def test_register_and_use_custom_backend(self):
        from repro.engine import NaiveBackend, get_backend, register_backend

        class TracingBackend(NaiveBackend):
            name = "tracing"

            def run_select(self, plan, child, semijoin_data):
                result = super().run_select(plan, child, semijoin_data)
                self.trace = getattr(self, "trace", 0) + 1
                return result

        register_backend("tracing", TracingBackend)
        data = random_dataset(5)
        from repro.gmql.lang import compile_program, Interpreter

        backend = get_backend("tracing")
        compiled = compile_program(
            "A = SELECT(cell == 'HeLa') DATA; MATERIALIZE A;"
        )
        Interpreter(backend, {"DATA": data}).run_program(compiled)
        assert backend.trace == 1
