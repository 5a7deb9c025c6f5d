"""Differential property: the persisted store never changes results.

The acceptance bar of the disk-native store: for hypothesis-generated
datasets seeded with bin-boundary nasties, running the full operator mix
(MAP, DIFFERENCE, COVER, JOIN) with a persistent store root -- blocks
built, persisted, then *re-served from memory-mapped segments by a
second run* -- must be byte-identical to the plain in-memory path, on
every engine.  The second run is forced onto the persisted segments by
using a fresh dataset object (same content, new identity), so nothing
can leak through the per-dataset store memo.  Block accounting reads
the process-wide counters, which also see the stores of derived
datasets (a COVER over a region SELECT's output never touches a source
store).
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecutionContext
from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.gdm.digest import results_digest
from repro.gmql.lang import execute
from repro.store.columnar import reset_store_counters, store_counters
from repro.store.persist import (
    close_opened_segments,
    reset_residency_ledger,
    set_store_root,
)
from tests.section2 import PROGRAMS as SECTION2_PROGRAMS
from tests.section2 import smoke_sources

BIN = 64  # small bin size so spanning/edge cases actually cross bins

PROGRAM = """
A = SELECT(side == 'left') DATA;
B = SELECT(side == 'right') DATA;
M = MAP() A B;
D = DIFFERENCE() A B;
C = COVER(1, ANY) A;
C2 = COVER(2, ALL) A;
F = FLAT(1, ANY) A;
S = SUMMIT(1, 2) A;
H = HISTOGRAM(2, ALL) A;
J = JOIN(DLE(50); output: LEFT) A B;
MATERIALIZE M;
MATERIALIZE D;
MATERIALIZE C;
MATERIALIZE C2;
MATERIALIZE F;
MATERIALIZE S;
MATERIALIZE H;
MATERIALIZE J;
"""

_POSITIONS = st.one_of(
    st.integers(0, 5 * BIN),
    st.sampled_from([0, BIN - 1, BIN, BIN + 1, 2 * BIN, 3 * BIN]),
)
_WIDTHS = st.one_of(
    st.integers(0, 3 * BIN),
    st.sampled_from([0, BIN, 2 * BIN]),
)
_INTERVALS = st.tuples(
    st.sampled_from(["chr1", "chr2"]), _POSITIONS, _WIDTHS
)


@pytest.fixture(autouse=True)
def no_leaked_store_state():
    set_store_root(None)
    reset_residency_ledger(None)
    yield
    set_store_root(None)
    reset_residency_ledger(None)
    close_opened_segments()


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


def run(dataset, engine):
    context = ExecutionContext(bin_size=BIN)
    results = execute(PROGRAM, {"DATA": dataset}, engine=engine,
                      context=context)
    return results


def rows(results):
    return {
        name: (dataset.name, list(dataset.region_rows()))
        for name, dataset in results.items()
    }


def run_persisted(left_spec, right_spec, engine):
    """Two persisted runs: the builder, then a pure mmap consumer."""
    store_dir = tempfile.mkdtemp(prefix="repro-test-persist-")
    try:
        set_store_root(store_dir, sync=True)
        cold = rows(run(make_dataset(left_spec, right_spec), engine))
        # A fresh dataset object with identical content: its store must
        # come entirely from the persisted segments.
        reset_store_counters()
        warm = rows(run(make_dataset(left_spec, right_spec), engine))
        counters = store_counters()
        return cold, warm, counters["blocks_mapped"], counters["blocks_built"]
    finally:
        set_store_root(None)
        close_opened_segments()
        shutil.rmtree(store_dir, ignore_errors=True)


@given(
    st.lists(_INTERVALS, min_size=1, max_size=12),
    st.lists(_INTERVALS, min_size=1, max_size=12),
    st.sampled_from(["naive", "columnar", "auto"]),
)
@settings(max_examples=30, deadline=None)
def test_persisted_store_matches_in_memory(left_spec, right_spec, engine):
    reference = rows(run(make_dataset(left_spec, right_spec), engine))
    cold, warm, mapped, built = run_persisted(left_spec, right_spec, engine)
    assert cold == reference
    assert warm == reference
    if engine != "naive":   # the naive engine never consults the store
        assert mapped > 0
        assert built == 0


@pytest.mark.parametrize("name", sorted(SECTION2_PROGRAMS))
def test_section2_rerun_maps_every_block_from_the_store(name, tmp_path):
    # Run 1 builds and synchronously persists every block set the
    # program touches, derived operands included; run 2 over freshly
    # generated sources (same seed, new objects) must map them all.
    program = SECTION2_PROGRAMS[name]
    set_store_root(str(tmp_path), sync=True)
    cold = execute(program, smoke_sources(), engine="columnar",
                   context=ExecutionContext(result_cache=False))
    reset_store_counters()
    warm = execute(program, smoke_sources(), engine="columnar",
                   context=ExecutionContext(result_cache=False))
    counters = store_counters()
    assert counters["blocks_built"] == 0
    assert counters["blocks_mapped"] > 0
    assert results_digest(warm) == results_digest(cold)


def test_parallel_persisted_matches_naive_on_boundary_cases():
    # Process pools are too slow for hypothesis; one hand-built dataset
    # packed with edge cases covers the mmap-handle shipping path.
    left = [
        ("chr1", 0, BIN),           # ends exactly on the first bin edge
        ("chr1", BIN, 0),           # zero-length on a bin edge
        ("chr1", BIN - 1, 2),       # straddles the edge
        ("chr1", 0, 3 * BIN),       # spans several bins
        ("chr2", 5 * BIN, 10),      # distant chromosome cluster
        ("chr2", 0, 0),             # zero-length at a probe's left edge
        ("chr2", 10, 0),            # zero-length at a probe's right edge
        ("chr2", 5, 0),             # zero-length strictly inside a probe
        ("chr1", 2 * BIN, 0),       # coincident with a zero-length probe
    ]
    right = [
        ("chr1", BIN // 2, BIN),
        ("chr1", 2 * BIN, 0),
        ("chr2", 0, 10),
        ("chr2", 10, 10),           # seam at 10: a point there hits neither
    ]
    reference = rows(run(make_dataset(left, right), "naive"))
    cold, warm, mapped, built = run_persisted(left, right, "parallel")
    assert cold == reference
    assert warm == reference
    assert mapped > 0
    assert built == 0
