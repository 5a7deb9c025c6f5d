"""Cross-engine differential suite for the float MAP aggregates.

Every float aggregate (SUM, AVG, STD, MEDIAN, BAG) must be **bit
identical** across the naive, columnar, auto and parallel backends over
adversarial inputs: denormals, signed zeros, NaN, and large-magnitude
cancellation where one misordered addition visibly changes the result.
Values are compared through ``repr``, which distinguishes ``-0.0`` from
``0.0``, ``1`` from ``1.0``, and treats NaN as equal to itself.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import aggregate_segments
from repro.engine.context import ExecutionContext
from repro.gdm import (
    Dataset,
    FLOAT,
    GenomicRegion,
    Metadata,
    RegionSchema,
    Sample,
)
from repro.gmql.aggregates import Avg, Max, Min, Sum
from repro.gmql.lang import execute
from repro.store.columnar import ValueColumn
from repro.store.join_kernels import group_offsets

BIN = 64

PROGRAM = """
A = SELECT(side == 'left') DATA;
B = SELECT(side == 'right') DATA;
M = MAP(s AS SUM(p), a AS AVG(p), d AS STD(p),
        m AS MEDIAN(p), b AS BAG(p)) A B;
MATERIALIZE M;
"""

#: Adversarial float attribute values.  ``1e16 + 1.0 - 1e16`` is the
#: canary: a float64 running sum returns 0.0, the exact sum returns 1.0.
_NASTY_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 0.1, -0.1,
    5e-324, -5e-324, 1e-308,
    1e16, -1e16, 1.0 + 2**-52,
    1e300, -1e300, float("nan"),
]
_POSITIONS = st.one_of(
    st.integers(0, 6 * BIN),
    st.sampled_from([0, BIN - 1, BIN, BIN + 1, 2 * BIN]),
)
_INTERVALS = st.tuples(
    st.sampled_from(["chr1", "chr2"]),
    _POSITIONS,
    st.one_of(st.integers(0, 2 * BIN), st.sampled_from([0, BIN])),
    st.one_of(st.sampled_from(_NASTY_FLOATS),
              # Bounded like the largest nasty value: a whole group must
              # stay summable -- fsum overflows (by design, with kernel
              # exception parity) once the true sum leaves float range,
              # which is not the behaviour under test here.
              st.floats(width=64, allow_nan=False, allow_infinity=False,
                        min_value=-1e300, max_value=1e300)),
)
_SPECS = st.lists(_INTERVALS, min_size=1, max_size=16)


def make_dataset(left_spec, right_spec) -> Dataset:
    schema = RegionSchema.of(("p", FLOAT))
    samples = []
    for sample_id, (side, spec) in enumerate(
        (("left", left_spec), ("right", right_spec)), start=1
    ):
        regions = [
            GenomicRegion(chrom, pos, pos + width, "*", (float(value),))
            for chrom, pos, width, value in spec
        ]
        samples.append(Sample(sample_id, regions, Metadata({"side": side})))
    return Dataset("DATA", schema, samples, validate=False)


def run(dataset, engine):
    context = ExecutionContext(bin_size=BIN, result_cache=False)
    return execute(PROGRAM, {"DATA": dataset}, engine=engine,
                   context=context)


def bitwise(results) -> dict:
    """Order-preserving deep form with repr-compared attribute values."""
    out = {}
    for name, dataset in results.items():
        out[name] = [
            (tuple(sorted(sample.meta)),
             [(r.chrom, r.left, r.right, r.strand,
               tuple(repr(v) for v in r.values))
              for r in sample.regions])
            for sample in dataset
        ]
    return out


class TestFloatAggregateDifferential:
    @given(_SPECS, _SPECS)
    @settings(max_examples=40, deadline=None)
    def test_columnar_and_auto_match_naive(self, left_spec, right_spec):
        dataset = make_dataset(left_spec, right_spec)
        expected = bitwise(run(dataset, "naive"))
        assert bitwise(run(dataset, "columnar")) == expected
        assert bitwise(run(dataset, "auto")) == expected

    def test_cancellation_canary(self):
        # One reference overlapping three experiment regions whose hit
        # order matters to a float64 running sum but not to fsum.
        left = [("chr1", 0, 3 * BIN, 0.0)]
        right = [
            ("chr1", 0, 10, 1e16),
            ("chr1", 5, 10, 1.0),
            ("chr1", 10, 10, -1e16),
        ]
        dataset = make_dataset(left, right)
        results = {
            engine: bitwise(run(dataset, engine))
            for engine in ("naive", "columnar", "auto")
        }
        assert results["columnar"] == results["naive"]
        assert results["auto"] == results["naive"]
        (__, regions), = results["naive"]["M"][0:1]
        # values = (p, s, a, d, m, b): SUM is the second column.
        assert regions[0][4][1] == "1.0"  # SUM survived the cancellation


def _nasty_dataset(seed: int = 7, n: int = 140) -> Dataset:
    """Deterministic adversarial dataset big enough for real morsels."""
    rng = random.Random(seed)
    left, right = [], []
    for spec in (left, right):
        for __ in range(n):
            chrom = rng.choice(["chr1", "chr2"])
            pos = rng.choice(
                [rng.randint(0, 6 * BIN), 0, BIN - 1, BIN, BIN + 1]
            )
            width = rng.choice([0, 1, BIN, rng.randint(0, 2 * BIN)])
            value = rng.choice(
                _NASTY_FLOATS + [rng.uniform(-1e3, 1e3)]
            )
            spec.append((chrom, pos, width, value))
    return make_dataset(left, right)


class TestParallelFloatAggregates:
    def test_parallel_matches_naive(self):
        dataset = _nasty_dataset()
        expected = bitwise(run(dataset, "naive"))
        # Float reductions run in the parent over the pair arrays a
        # worker returns; pickle-vs-segment shipping of those kernels is
        # covered by test_executor_differential.py.
        assert bitwise(run(dataset, "parallel")) == expected


# -- the vector emit of aggregate_segments ----------------------------------


_GROUP_FLOATS = st.one_of(
    st.sampled_from([v for v in _NASTY_FLOATS if v == v]),
    st.floats(width=64, allow_nan=False, allow_infinity=False,
              min_value=-1e300, max_value=1e300),
)


@given(st.lists(st.lists(_GROUP_FLOATS, max_size=6), min_size=1,
                max_size=12))
@settings(max_examples=150, deadline=None)
def test_float_avg_emit_is_per_group_fsum_over_count(groups):
    """The emitted AVG (and SUM, MIN, MAX) of each group is, bit for bit,
    what the naive definition computes over that group alone: empty
    groups give the aggregate's empty value."""
    values = [value for group in groups for value in group]
    ref_rows = np.repeat(np.arange(len(groups), dtype=np.int64),
                         [len(group) for group in groups])
    offsets = group_offsets(ref_rows, len(groups))
    e_rows = np.arange(len(values), dtype=np.int64)
    expected = {
        Avg: [math.fsum(g) / len(g) if g else None for g in groups],
        Sum: [math.fsum(g) if g else None for g in groups],
        Min: [min(g) if g else None for g in groups],
        Max: [max(g) if g else None for g in groups],
    }
    for aggregate, wanted in expected.items():
        emitted = aggregate_segments(
            aggregate(), "FLOAT", ValueColumn(values), e_rows, ref_rows,
            offsets,
        )
        assert list(map(repr, emitted)) == list(map(repr, wanted))
        assert all(type(v) is float for v in emitted if v is not None)
