"""Differential properties: pruning and the cache never change results.

Two invariants, checked over hypothesis-generated datasets seeded with
bin-boundary nasties (zero-length regions, regions ending exactly on a
bin edge, bin-spanning regions):

* cached vs cold-cache runs -- byte-identical, names included;
* every engine agrees with the naive reference.

The store-on vs store-off property that used to live here went with the
store-off path.  What it guarded -- zone-map and dead-bin pruning never
changing a result -- is checked against the unpruned naive oracle by
``test_columnar_and_auto_match_naive`` below and, for every executor, by
``tests/engine/test_executor_differential.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecutionContext
from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.gmql.lang import execute
from repro.store.cache import reset_result_cache

BIN = 64  # small bin size so spanning/edge cases actually cross bins

PROGRAM = """
A = SELECT(side == 'left') DATA;
B = SELECT(side == 'right') DATA;
M = MAP() A B;
D = DIFFERENCE() A B;
C = COVER(1, ANY) A;
J = JOIN(DLE(50); output: LEFT) A B;
MATERIALIZE M;
MATERIALIZE D;
MATERIALIZE C;
MATERIALIZE J;
"""

#: Interval strategy biased toward bin boundaries: starts at/near
#: multiples of BIN, zero-length intervals, widths ending exactly on an
#: edge, and spans covering several bins.
_POSITIONS = st.one_of(
    st.integers(0, 5 * BIN),
    st.sampled_from([0, BIN - 1, BIN, BIN + 1, 2 * BIN, 3 * BIN]),
)
_WIDTHS = st.one_of(
    st.integers(0, 3 * BIN),            # includes zero-length
    st.sampled_from([0, BIN, 2 * BIN]),  # ends exactly on a bin edge
)
_INTERVALS = st.tuples(
    st.sampled_from(["chr1", "chr2"]), _POSITIONS, _WIDTHS
)


def make_dataset(left_spec, right_spec):
    samples = []
    for sample_id, (side, spec) in enumerate(
        (("left", left_spec), ("right", right_spec)), start=1
    ):
        regions = [
            GenomicRegion(chrom, pos, pos + width, "*", ())
            for chrom, pos, width in spec
        ]
        samples.append(Sample(sample_id, regions, Metadata({"side": side})))
    return Dataset("DATA", RegionSchema.empty(), samples, validate=False)


def run(dataset, engine, result_cache=False, bin_size=BIN):
    context = ExecutionContext(bin_size=bin_size, result_cache=result_cache)
    results = execute(PROGRAM, {"DATA": dataset}, engine=engine,
                      context=context)
    return results, context


def rows(results):
    return {
        name: (dataset.name, list(dataset.region_rows()))
        for name, dataset in results.items()
    }


@given(
    st.lists(_INTERVALS, min_size=1, max_size=12),
    st.lists(_INTERVALS, min_size=1, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_columnar_and_auto_match_naive(left_spec, right_spec):
    dataset = make_dataset(left_spec, right_spec)
    reference = rows(run(dataset, "naive")[0])
    for engine in ("columnar", "auto"):
        assert rows(run(dataset, engine)[0]) == reference


@given(
    st.lists(_INTERVALS, min_size=1, max_size=10),
    st.lists(_INTERVALS, min_size=1, max_size=10),
    st.sampled_from(["naive", "columnar", "auto"]),
)
@settings(max_examples=30, deadline=None)
def test_cached_matches_cold(left_spec, right_spec, engine):
    reset_result_cache()
    dataset = make_dataset(left_spec, right_spec)
    cold, cold_ctx = run(dataset, engine, result_cache=True)
    warm, warm_ctx = run(dataset, engine, result_cache=True)
    assert warm_ctx.metrics.counter("result_cache.hits") >= 1
    assert rows(cold) == rows(warm)
    reset_result_cache()


def test_parallel_matches_naive_on_boundary_cases():
    # One hand-built dataset packed with edge cases through the plain
    # ``engine="parallel"`` entry point (own pool, default shipper); the
    # hypothesis sweep over executors is test_executor_differential.py.
    left = [
        ("chr1", 0, BIN),           # ends exactly on the first bin edge
        ("chr1", BIN, 0),           # zero-length on a bin edge
        ("chr1", BIN - 1, 2),       # straddles the edge
        ("chr1", 0, 3 * BIN),       # spans several bins
        ("chr2", 5 * BIN, 10),      # distant chromosome cluster
    ]
    right = [
        ("chr1", BIN // 2, BIN),
        ("chr1", 2 * BIN, 0),
        ("chr2", 0, 10),
    ]
    dataset = make_dataset(left, right)
    reference = rows(run(dataset, "naive")[0])
    parallel, context = run(dataset, "parallel")
    assert rows(parallel) == reference


def test_pruning_fires_on_disjoint_chromosomes():
    left = [("chr1", 0, 40), ("chr2", 0, 40)]
    right = [("chr1", 10, 10)]
    dataset = make_dataset(left, right)
    __, context = run(dataset, "columnar")
    assert context.metrics.counter("store.partitions_pruned") > 0
