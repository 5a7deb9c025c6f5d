"""E7 (Section 4.2): engine comparison on three genomic queries.

The paper's ref [10] compared Flink and Spark "on three genomic queries
inspired by GMQL"; our analog compares the naive record-at-a-time engine,
the columnar numpy engine, the process-pool engine (the same kernels run
per unit and chromosome on worker processes), and the
cost-routed ``auto`` engine on three GMQL queries of the same families:
a MAP count, a COVER over replicates, and a genometric JOIN.  One
logical plan, four backends -- only the operator encodings (and, for
``auto``, the per-node routing) differ.
"""

import pytest

from repro.gmql.lang import execute
from repro.simulate import workload_dataset

QUERIES = {
    "map-count": """
        REF = SELECT(replicate == 1) DATA;
        RESULT = MAP(n AS COUNT) REF DATA;
        MATERIALIZE RESULT;
    """,
    "cover": """
        RESULT = COVER(2, ANY) DATA;
        MATERIALIZE RESULT;
    """,
    "join-dle": """
        A = SELECT(replicate == 1) DATA;
        B = SELECT(replicate == 2) DATA;
        RESULT = JOIN(DLE(1000); output: LEFT) A B;
        MATERIALIZE RESULT;
    """,
}

ENGINES = ("naive", "columnar", "parallel", "auto")


@pytest.fixture(scope="module")
def data():
    return workload_dataset(seed=7, n_samples=6, regions_per_sample=4_000)


@pytest.fixture(scope="module")
def reference_results(data):
    return {
        name: execute(query, {"DATA": data}, engine="naive")["RESULT"]
        for name, query in QUERIES.items()
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_engine_on_query(benchmark, data, reference_results, query_name,
                         engine):
    benchmark.group = query_name
    query = QUERIES[query_name]
    result = benchmark(
        lambda: execute(query, {"DATA": data}, engine=engine)["RESULT"]
    )
    reference = reference_results[query_name]
    # All engines agree on the result shape.
    assert len(result) == len(reference)
    assert result.region_count() == reference.region_count()
    benchmark.extra_info.update(
        {"regions_out": result.region_count(), "samples_out": len(result)}
    )
