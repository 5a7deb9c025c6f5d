"""Cross-engine differential suite for JOIN and MAP.

The naive backend is the semantics oracle.  Every genometric condition
shape (DLE -- including the touching ``DLE(0)`` and overlap-only
``DLE(-1)`` forms -- DGE, MD(k), UP, DOWN and combinations) and every
registered MAP aggregate must produce *identical* results on the
columnar and auto backends: same regions, same attribute values, same
metadata, same order.  ``test_executor_differential.py`` runs the same
programs on every other executor (``parallel`` with segment and pickle
shipping, ``sharded``).

Inputs are hypothesis-generated with the usual nasties baked into the
strategies: strandless regions under strand-aware UP/DOWN, zero-length
regions, coincident points, intervals straddling the BIN=64 zone-map
grid, and chromosome names whose natural order differs from string
order or ties (``chr2``/``chr10``/``chrX``, ``chr1``/``chr01``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecutionContext
from repro.gdm import (
    Dataset,
    FLOAT,
    GenomicRegion,
    INT,
    Metadata,
    RegionSchema,
    Sample,
)
from repro.gmql.aggregates import available_aggregates
from repro.gmql.lang import execute

BIN = 64

#: (condition text, output mode) -- every clause shape the grammar
#: admits, spread across the four emit modes.
JOIN_CONDITIONS = (
    ("DLE(40)", "LEFT"),
    ("DLE(0)", "RIGHT"),
    ("DLE(-1)", "INT"),
    ("DGE(5)", "LEFT"),
    ("DLE(100), DGE(3)", "CAT"),
    ("MD(1)", "LEFT"),
    ("MD(3)", "CAT"),
    ("MD(2), DLE(80)", "LEFT"),
    ("DLE(60), UP", "LEFT"),
    ("MD(1), DOWN", "LEFT"),
    ("UP", "LEFT"),
    ("DOWN", "RIGHT"),
)


def _join_program() -> str:
    lines = [
        "A = SELECT(side == 'left') DATA;",
        "B = SELECT(side == 'right') DATA;",
    ]
    for i, (condition, output) in enumerate(JOIN_CONDITIONS):
        lines.append(
            f"J{i} = JOIN({condition}; output: {output}) A B;"
            f" MATERIALIZE J{i};"
        )
    return "\n".join(lines)


def _map_program() -> str:
    lines = [
        "A = SELECT(side == 'left') DATA;",
        "B = SELECT(side == 'right') DATA;",
        "M_BARE = MAP() A B; MATERIALIZE M_BARE;",
    ]
    for name in available_aggregates():
        if name == "COUNT":
            call = "n AS COUNT"
        else:
            call = f"s AS {name}(score), h AS {name}(hits)"
        lines.append(
            f"M_{name} = MAP({call}) A B; MATERIALIZE M_{name};"
        )
    return "\n".join(lines)


JOIN_PROGRAM = _join_program()
MAP_PROGRAM = _map_program()

#: Positions biased toward the BIN=64 zone-map grid so straddling and
#: edge-exact intervals occur constantly; widths include zero-length.
_POSITIONS = st.one_of(
    st.integers(0, 6 * BIN),
    st.sampled_from([0, BIN - 1, BIN, BIN + 1, 2 * BIN, 3 * BIN]),
)
_WIDTHS = st.one_of(
    st.integers(0, 3 * BIN),
    st.sampled_from([0, BIN, 2 * BIN]),
)
#: Chromosome names exercising natural order (``chr2 < chr10 < chrX``)
#: and tied sort keys (``chr01`` sorts level with ``chr1``, so input
#: order decides between them), weighted toward two names so that
#: regions still meet on a shared chromosome.
_CHROMS = st.one_of(
    st.sampled_from(["chr1", "chr2"]),
    st.sampled_from(["chr10", "chrX", "chr01"]),
)
_INTERVALS = st.tuples(
    _CHROMS,
    _POSITIONS,
    _WIDTHS,
    st.sampled_from(["+", "-", "*"]),
    st.integers(-20, 20),
)


def make_dataset(left_spec, right_spec) -> Dataset:
    schema = RegionSchema.of(("score", FLOAT), ("hits", INT))
    samples = []
    for sample_id, (side, spec) in enumerate(
        (("left", left_spec), ("right", right_spec)), start=1
    ):
        regions = [
            GenomicRegion(
                chrom, pos, pos + width, strand, (value / 4, value)
            )
            for chrom, pos, width, strand, value in spec
        ]
        samples.append(Sample(sample_id, regions, Metadata({"side": side})))
    return Dataset("DATA", schema, samples, validate=False)


def run(program, dataset, engine):
    context = ExecutionContext(bin_size=BIN, result_cache=False)
    return execute(program, {"DATA": dataset}, engine=engine,
                   context=context)


def canonical(results) -> dict:
    """Order-preserving deep form of every materialised dataset."""
    out = {}
    for name, dataset in results.items():
        out[name] = [
            (tuple(sorted(sample.meta)),
             [(r.chrom, r.left, r.right, r.strand, r.values)
              for r in sample.regions])
            for sample in dataset
        ]
    return out


_SPECS = st.lists(_INTERVALS, min_size=1, max_size=14)


class TestJoinDifferential:
    @given(_SPECS, _SPECS)
    @settings(max_examples=25, deadline=None)
    def test_columnar_and_auto_match_naive(self, left_spec, right_spec):
        dataset = make_dataset(left_spec, right_spec)
        expected = canonical(run(JOIN_PROGRAM, dataset, "naive"))
        assert canonical(run(JOIN_PROGRAM, dataset, "columnar")) == expected
        assert canonical(run(JOIN_PROGRAM, dataset, "auto")) == expected


class TestMapDifferential:
    @given(_SPECS, _SPECS)
    @settings(max_examples=25, deadline=None)
    def test_columnar_and_auto_match_naive(self, left_spec, right_spec):
        dataset = make_dataset(left_spec, right_spec)
        expected = canonical(run(MAP_PROGRAM, dataset, "naive"))
        assert canonical(run(MAP_PROGRAM, dataset, "columnar")) == expected
        assert canonical(run(MAP_PROGRAM, dataset, "auto")) == expected
