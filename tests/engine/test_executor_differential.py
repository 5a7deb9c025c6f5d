"""One differential over *executors*: same operators, different hosts.

The columnar operator library plans every MAP, JOIN, COVER-family and
DIFFERENCE in the calling process and hands the per-chromosome array
work to an executor.  Each executor below must reproduce the naive
oracle exactly -- same regions, same attribute values (compared through
``repr``, so ``-0.0``, ``1`` vs ``1.0`` and NaN are all distinguished),
same metadata, same order:

* ``columnar`` -- pieces run inline;
* ``parallel/segments`` -- pieces run on a process pool, every array
  shipped through a shared-memory segment (``MIN_SHARED_BYTES`` forced
  to 0, so even hypothesis-sized blocks get one);
* ``parallel/pickle`` -- the same pool behind
  ``ArrayShipper(enabled=False)``, every array pickled;
* ``sharded`` -- chromosome-group shards merged by ``merge_partials``.

Programs and input strategies are those of
``test_join_map_differential.py`` (every genometric clause shape, every
registered aggregate, zone-grid-straddling and zero-length intervals)
plus the accumulation family, DIFFERENCE, MAP / JOIN / COVER over
derived operands (metadata and region SELECTs), and JOINs of operands
with disjoint attribute names.  This file replaces the
store-on/off property of ``test_store_equivalence.py`` and the
``use_shm`` arms of the join/map and float-aggregate suites: the paths
those compared against no longer exist.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine import parallel as parallel_mod
from repro.engine.base import Backend
from repro.engine.columnar import ColumnarBackend
from repro.engine.context import ExecutionContext
from repro.engine.dispatch import get_backend
from repro.engine.parallel import ParallelBackend
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.store import shm as shm_mod
from repro.store.shm import ArrayShipper

from tests.engine.test_float_aggregates import bitwise
from tests.engine.test_join_map_differential import (
    BIN,
    JOIN_PROGRAM,
    MAP_PROGRAM,
    _SPECS,
    make_dataset,
)

SWEEP_PROGRAM = """
A = SELECT(side == 'left') DATA;
B = SELECT(side == 'right') DATA;
C1 = COVER(1, ANY) DATA; MATERIALIZE C1;
C2 = COVER(2, ANY) DATA; MATERIALIZE C2;
F = FLAT(1, 2) DATA; MATERIALIZE F;
S = SUMMIT(1, ANY) DATA; MATERIALIZE S;
H = HISTOGRAM(1, ANY) DATA; MATERIALIZE H;
D = DIFFERENCE() A B; MATERIALIZE D;
"""

#: Derived operands: metadata SELECTs hand their region lists (and the
#: blocks and columns memoised on them) to the operator behind them; a
#: region SELECT builds fresh lists.  Every executor runs after the
#: others over the same dataset object, so memoised state must serve
#: them all identically.
DERIVED_PROGRAM = """
P = SELECT(side == 'left') DATA;
Q = SELECT(side == 'right') DATA;
E = SELECT(side == 'right'; region: score > 0) DATA;
MC = MAP(n AS COUNT) P Q; MATERIALIZE MC;
MA = MAP(a AS AVG(score), s AS SUM(hits)) P Q; MATERIALIZE MA;
JM = JOIN(MD(1); output: LEFT) P Q; MATERIALIZE JM;
CV = COVER(1, ANY) Q; MATERIALIZE CV;
ME = MAP(n AS COUNT, a AS AVG(score)) P E; MATERIALIZE ME;
"""

#: JOINs whose operands share no attribute name, so the merged values
#: are the left tuple followed by the right one, over all four output
#: options (``JOIN_PROGRAM``'s operands unify both attributes).
DISJOINT_JOIN_PROGRAM = """
A = SELECT(side == 'left') DATA;
B = SELECT(side == 'right') DATA;
L = PROJECT(score) A;
R = PROJECT(hits) B;
JL = JOIN(DLE(40); output: LEFT) L R; MATERIALIZE JL;
JR = JOIN(DLE(0); output: RIGHT) L R; MATERIALIZE JR;
JI = JOIN(DLE(-1); output: INT) L R; MATERIALIZE JI;
JC = JOIN(MD(2); output: CAT) L R; MATERIALIZE JC;
"""

PROGRAMS = (
    JOIN_PROGRAM, MAP_PROGRAM, SWEEP_PROGRAM, DERIVED_PROGRAM,
    DISJOINT_JOIN_PROGRAM,
)


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


@pytest.fixture
def executors(pool, monkeypatch):
    """``{label: backend factory}``; parallel backends borrow *pool*, so
    closing one after an example unlinks its segments and keeps the
    workers."""
    monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)

    def pickling():
        with monkeypatch.context() as patch:
            patch.setattr(
                parallel_mod, "ArrayShipper",
                partial(ArrayShipper, enabled=False),
            )
            backend = ParallelBackend(pool=pool)
            backend.shipper()
        return backend

    return {
        "columnar": partial(get_backend, "columnar"),
        "parallel/segments": partial(ParallelBackend, pool=pool),
        "parallel/pickle": pickling,
        "sharded": partial(get_backend, "sharded"),
    }


def check_all_executors(dataset, executors) -> dict:
    """Run every program on every executor; returns the parallel
    backends' summed ``shm.*`` counters."""
    sources = {"DATA": dataset}
    shipped = {"parallel/segments": {}, "parallel/pickle": {}}
    for program in PROGRAMS:
        compiled = optimize(compile_program(program, datasets=sources))

        def run(backend):
            context = ExecutionContext(bin_size=BIN, result_cache=False)
            try:
                results = Interpreter(
                    backend, sources, context=context
                ).run_program(compiled)
            finally:
                backend.close()
            return bitwise(results), context.metrics.snapshot()

        expected, __ = run(get_backend("naive"))
        for label, factory in executors.items():
            got, metrics = run(factory())
            assert got == expected, label
            if label in shipped:
                for name in ("shm.bytes_shared", "shm.bytes_pickled"):
                    shipped[label][name] = (
                        shipped[label].get(name, 0) + metrics.get(name, 0)
                    )
    return shipped


@given(_SPECS, _SPECS)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_executor_matches_naive(executors, left_spec, right_spec):
    check_all_executors(make_dataset(left_spec, right_spec), executors)


def test_fixed_adversarial_dataset_and_shipping_modes(executors):
    """A few hundred regions packed with the edge cases (repeated
    coincident zero-length points make MD ties real), and proof that
    the two parallel arms really shipped differently."""
    rng = random.Random(11)
    left, right = [], []
    for spec in (left, right):
        for __ in range(120):
            chrom = rng.choice(["chr1", "chr2"])
            pos = rng.choice(
                [rng.randint(0, 6 * BIN), 0, BIN - 1, BIN, BIN + 1, 2 * BIN]
            )
            width = rng.choice([0, 1, BIN, 2 * BIN, rng.randint(0, 3 * BIN)])
            strand = rng.choice(["+", "-", "*"])
            spec.append((chrom, pos, width, strand, rng.randint(-20, 20)))
        spec.extend(("chr1", 2 * BIN, 0, "*", 5) for __ in range(3))
    shipped = check_all_executors(make_dataset(left, right), executors)
    assert shipped["parallel/segments"]["shm.bytes_shared"] > 0
    assert shipped["parallel/pickle"]["shm.bytes_shared"] == 0
    assert shipped["parallel/pickle"]["shm.bytes_pickled"] > 0


def test_parallel_backend_is_only_an_executor():
    """``parallel`` re-hosts the columnar operators; it encodes none."""
    own = [name for name in vars(ParallelBackend) if name.startswith("run_")]
    assert own == []
    assert "submit_kernel" in vars(ParallelBackend)
    operators = [name for name in vars(Backend) if name.startswith("run_")]
    assert operators
    for name in operators:
        assert getattr(ParallelBackend, name) is getattr(
            ColumnarBackend, name
        )
